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

// frameOf encodes one record the way the engine frames it.
func frameOf(lsn uint64, op byte, key, value string) []byte {
	body := binary.BigEndian.AppendUint64(nil, lsn)
	body = append(body, op)
	body = binary.BigEndian.AppendUint32(body, uint32(len(key)))
	body = append(append(body, key...), value...)
	frame := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
	frame = binary.BigEndian.AppendUint32(frame, crc32.Checksum(body, castagnoli))
	return append(frame, body...)
}

// modelReplay is the reference the replayer is held to, written the slow
// way round: parse every frame up to the first bad one, find the last frame
// that closes a batch, and only then apply what precedes it. It returns the
// sorted keys a log holding these segments must list and how many bytes of
// each segment replay must keep.
func modelReplay(segs ...[]byte) (keys []string, kept []int) {
	type version struct {
		lsn uint64
		put bool
	}
	type parsed struct {
		key string
		version
		end int
	}
	winners := map[string]version{}
	for _, data := range segs {
		var frames []parsed
		closed := 0 // frames[:closed] belong to closed batches
		for off := 0; len(data)-off >= frameHeader; {
			blen := int(binary.BigEndian.Uint32(data[off:]))
			if blen < bodyHeader || len(data)-off-frameHeader < blen {
				break
			}
			body := data[off+frameHeader : off+frameHeader+blen]
			klen := int(binary.BigEndian.Uint32(body[9:]))
			op := body[8] &^ opMore
			if crc32.Checksum(body, castagnoli) != binary.BigEndian.Uint32(data[off+4:]) ||
				klen > blen-bodyHeader || (op != opPut && op != opDelete) {
				break
			}
			off += frameHeader + blen
			frames = append(frames, parsed{
				key:     string(body[bodyHeader : bodyHeader+klen]),
				version: version{lsn: binary.BigEndian.Uint64(body), put: op == opPut},
				end:     off,
			})
			if body[8]&opMore == 0 {
				closed = len(frames)
			}
		}
		end := 0
		for _, f := range frames[:closed] {
			if w, ok := winners[f.key]; !ok || f.lsn > w.lsn {
				winners[f.key] = f.version
			}
			end = f.end
		}
		kept = append(kept, end)
	}
	for k, w := range winners {
		if w.put {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	return keys, kept
}

// FuzzOpenSegment writes the input as segment 1 of a directory whose
// segment 2 is one well-formed record, so whatever state the input leaves
// the replayer in meets a following segment. Open never panics and cuts
// segment 1 to the prefix modelReplay keeps — in particular no key of a
// batch the input leaves unterminated is listed, and segment 2 cannot
// close it; every key it lists can be read; and a second Open replays the
// same key set without finding anything more to truncate.
func FuzzOpenSegment(f *testing.F) {
	second := frameOf(1<<40, opPut, "second-segment", "intact")
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		segPath := filepath.Join(dir, "wal-0000000000000001.seg")
		if err := os.WriteFile(segPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "wal-0000000000000002.seg"), second, 0o644); err != nil {
			t.Fatal(err)
		}
		wantKeys, wantKept := modelReplay(data, second)
		ctx := context.Background()
		// open replays dir and returns the sorted keys, every one read back.
		open := func() (*Store, []string) {
			s := openT(t, dir, Options{CompactGarbageBytes: noAutoCompact})
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
		if !bytes.HasPrefix(data, kept) || len(kept) != wantKept[0] {
			t.Fatalf("segment after Open is %d bytes, want the input's first %d of %d", len(kept), wantKept[0], len(data))
		}
		if !slices.Equal(keys, wantKeys) {
			t.Fatalf("Open replayed %q, the model %q", keys, wantKeys)
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
