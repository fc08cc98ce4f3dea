package walengine

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
)

// The two parsers that read bytes back off disk — the checkpoint decoder
// and the segment replayer — must survive anything a torn write, a bad
// sector or a hostile file can hand them. Seed corpora live under
// testdata/fuzz/ and run as plain tests.

// sealCheckpoint wraps body in the checkpoint magic and a matching CRC, so
// mutations reach the parser instead of dying at the checksum.
func sealCheckpoint(body []byte) []byte {
	out := append([]byte(ckptMagic), body...)
	return binary.BigEndian.AppendUint32(out, crc32.Checksum(body, castagnoli))
}

// allocatedDuring returns the heap bytes allocated while f runs.
func allocatedDuring(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzDecodeCheckpoint feeds the input to decodeCheckpoint twice: as a
// whole file, and as a body sealed with a valid magic and CRC. Decoding
// never panics, allocates in proportion to the input, and whatever it
// accepts re-encodes to the same bytes.
func FuzzDecodeCheckpoint(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, file := range [][]byte{data, sealCheckpoint(data)} {
			var ck ckptData
			var err error
			got := allocatedDuring(func() { ck, err = decodeCheckpoint(file) })
			if limit := uint64(64*len(file) + 1<<20); got > limit {
				t.Fatalf("decoding %d bytes allocated %d, limit %d", len(file), got, limit)
			}
			if err != nil {
				continue
			}
			if again := encodeCheckpoint(ck); !bytes.Equal(again, file) {
				t.Fatalf("accepted checkpoint re-encodes differently:\n in  %x\n out %x", file, again)
			}
		}
	})
}

// FuzzOpenSegment writes the input as segment 1 of an empty directory.
// Open never panics and truncates the segment to a valid prefix of what it
// was given; every key it lists can be read; and a second Open replays the
// same key set without finding anything more to truncate.
func FuzzOpenSegment(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		segPath := filepath.Join(dir, "wal-0000000000000001.seg")
		if err := os.WriteFile(segPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		// open replays dir and returns the sorted keys, every one read back.
		open := func() (*Store, []string) {
			s := openT(t, dir, Options{DisableAutoCompact: true})
			keys, err := s.List(ctx, "")
			if err != nil {
				t.Fatalf("List: %v", err)
			}
			for _, k := range keys {
				if _, err := s.Get(ctx, k); err != nil {
					t.Fatalf("Get(%q) of a listed key: %v", k, err)
				}
			}
			slices.Sort(keys)
			return s, keys
		}
		s, keys := open()
		kept, err := os.ReadFile(segPath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, kept) {
			t.Fatalf("segment after Open is not a prefix of the input: %d of %d bytes", len(kept), len(data))
		}
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		s2, keys2 := open()
		if torn := s2.WAL().TornBytes.Load(); torn != 0 {
			t.Fatalf("second Open truncated %d more bytes: the first left an invalid prefix", torn)
		}
		if !slices.Equal(keys, keys2) {
			t.Fatalf("second Open replayed %q, first %q", keys2, keys)
		}
	})
}
