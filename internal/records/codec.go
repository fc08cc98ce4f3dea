package records

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// The stored forms of a commit record and of a packed object are binary.
// Both open with a version byte, and both keep their lengths ahead of their
// bytes, so a decoder validates every length against the input before it
// allocates, and then copies all of a record's text in one conversion.
//
// A commit record, version 1:
//
//	version   1 byte   (recordVersion)
//	flags     1 byte   (bit 0: Packed; every other bit zero)
//	timestamp 8 bytes  (big-endian two's complement)
//	uvarint   len(UUID), len(Node), len(SpillDir), len(TraceID)
//	uvarint   len(WriteSet), len(Spilled)
//	uvarint   the length of each WriteSet key, then of each Spilled key
//	text      UUID, Node, SpillDir, TraceID, the WriteSet keys, the
//	          Spilled keys, back to back, to the end of the input
//
// A packed object, version 1, holds its entries sorted by key:
//
//	version   1 byte   (packVersion)
//	uvarint   entry count
//	uvarint   per entry: key length, value length
//	keys      every key, back to back
//	values    every value, back to back, to the end of the input
//
// Every uvarint is minimal, and the lengths account for the input exactly,
// so an input a decoder accepts is the one encoding of what it decodes to.

const (
	recordVersion = 1
	packVersion   = 1

	flagPacked = 1 << 0

	// recordHeader is the fixed part of a record: version, flags,
	// timestamp.
	recordHeader = 10
)

var errTruncated = errors.New("truncated")

// uvarintLen returns how many bytes binary.AppendUvarint writes for x.
func uvarintLen(x uint64) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}

// lengths reads uvarints off the front of its input, each a length or count
// that must fit what is left of the input.
type lengths struct {
	b   []byte
	err error
}

// next returns the next uvarint, or 0 with l.err set when the input ends,
// the uvarint is not minimal, or its value exceeds limit.
func (l *lengths) next(limit int) int {
	if l.err != nil {
		return 0
	}
	x, n := binary.Uvarint(l.b)
	switch {
	case n == 0:
		l.err = errTruncated
	case n < 0 || (n > 1 && l.b[n-1] == 0):
		l.err = errors.New("malformed length")
	case limit < 0 || x > uint64(limit):
		l.err = errors.New("length past the end of the input")
	}
	if l.err != nil {
		return 0
	}
	l.b = l.b[n:]
	return int(x)
}

// binarySize returns len(r.AppendBinary(nil)).
func (r *CommitRecord) binarySize() int {
	n := recordHeader
	for _, s := range [...]string{r.UUID, r.Node, r.SpillDir, r.TraceID} {
		n += uvarintLen(uint64(len(s))) + len(s)
	}
	n += uvarintLen(uint64(len(r.WriteSet))) + uvarintLen(uint64(len(r.Spilled)))
	for _, keys := range [...][]string{r.WriteSet, r.Spilled} {
		for _, k := range keys {
			n += uvarintLen(uint64(len(k))) + len(k)
		}
	}
	return n
}

// AppendBinary appends the record's stored form to dst and returns the
// extended slice. Into a dst with room for the record it allocates nothing.
func (r *CommitRecord) AppendBinary(dst []byte) ([]byte, error) {
	var flags byte
	if r.Packed {
		flags |= flagPacked
	}
	dst = append(dst, recordVersion, flags)
	dst = binary.BigEndian.AppendUint64(dst, uint64(r.Timestamp))
	text := [...]string{r.UUID, r.Node, r.SpillDir, r.TraceID}
	for _, s := range text {
		dst = binary.AppendUvarint(dst, uint64(len(s)))
	}
	dst = binary.AppendUvarint(dst, uint64(len(r.WriteSet)))
	dst = binary.AppendUvarint(dst, uint64(len(r.Spilled)))
	for _, keys := range [...][]string{r.WriteSet, r.Spilled} {
		for _, k := range keys {
			dst = binary.AppendUvarint(dst, uint64(len(k)))
		}
	}
	for _, s := range text {
		dst = append(dst, s...)
	}
	for _, keys := range [...][]string{r.WriteSet, r.Spilled} {
		for _, k := range keys {
			dst = append(dst, k...)
		}
	}
	return dst, nil
}

// Marshal returns the record's stored form in one allocation.
func (r *CommitRecord) Marshal() ([]byte, error) {
	return r.AppendBinary(make([]byte, 0, r.binarySize()))
}

// UnmarshalCommitRecord decodes a stored commit record. It rejects an
// unknown version or flag, a truncated input, a length that runs past the
// input and bytes left over; whatever it accepts, Marshal re-encodes to b.
// The record's strings all share one copy of b's text, and a record of up
// to two keys holds its key slice in its own allocation (AllocRecord).
func UnmarshalCommitRecord(b []byte) (*CommitRecord, error) {
	r, err := unmarshalCommitRecord(b)
	if err != nil {
		return nil, fmt.Errorf("records: bad commit record: %w", err)
	}
	return r, nil
}

func unmarshalCommitRecord(b []byte) (*CommitRecord, error) {
	if len(b) < recordHeader {
		return nil, errTruncated
	}
	if b[0] != recordVersion {
		return nil, fmt.Errorf("unknown version %d", b[0])
	}
	if b[1]&^flagPacked != 0 {
		return nil, fmt.Errorf("unknown flags %#x", b[1])
	}
	// Every length is checked against the input before anything is
	// allocated. Each key's length takes at least one byte, which bounds
	// the key counts.
	l := lengths{b: b[recordHeader:]}
	var fields [4]int
	textLen := 0
	for i := range fields {
		fields[i] = l.next(len(b))
		textLen += fields[i]
	}
	nws := l.next(len(l.b))
	nsp := l.next(len(l.b) - nws)
	keyLens := l.b
	for i := 0; i < nws+nsp && l.err == nil; i++ {
		textLen += l.next(len(b))
	}
	if l.err != nil {
		return nil, l.err
	}
	if textLen != len(l.b) {
		return nil, fmt.Errorf("lengths account for %d bytes of text, input holds %d", textLen, len(l.b))
	}

	text := string(l.b)
	cut := func(n int) string {
		s := text[:n]
		text = text[n:]
		return s
	}
	r, keys := AllocRecord(nws + nsp)
	r.Timestamp = int64(binary.BigEndian.Uint64(b[2:]))
	r.Packed = b[1]&flagPacked != 0
	r.UUID = cut(fields[0])
	r.Node = cut(fields[1])
	r.SpillDir = cut(fields[2])
	r.TraceID = cut(fields[3])
	if nws+nsp > 0 {
		keys = keys[:nws+nsp]
		l = lengths{b: keyLens}
		for i := range keys {
			keys[i] = cut(l.next(len(b)))
		}
		if nws > 0 {
			r.WriteSet = keys[:nws:nws]
		}
		if nsp > 0 {
			r.Spilled = keys[nws:]
		}
	}
	return r, nil
}

// Pack encodes a transaction's write set as one object (the §8 packed
// layout), its entries sorted by key.
func Pack(writes map[string][]byte) ([]byte, error) {
	keys := make([]string, 0, len(writes))
	size := 1 + uvarintLen(uint64(len(writes)))
	for k, v := range writes {
		keys = append(keys, k)
		size += uvarintLen(uint64(len(k))) + uvarintLen(uint64(len(v))) + len(k) + len(v)
	}
	slices.Sort(keys)
	dst := make([]byte, 0, size)
	dst = append(dst, packVersion)
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	for _, k := range keys {
		dst = binary.AppendUvarint(dst, uint64(len(k)))
		dst = binary.AppendUvarint(dst, uint64(len(writes[k])))
	}
	for _, k := range keys {
		dst = append(dst, k...)
	}
	for _, k := range keys {
		dst = append(dst, writes[k]...)
	}
	return dst, nil
}

// Unpack decodes a packed object. It rejects what UnmarshalCommitRecord
// rejects, and keys out of order or repeated; whatever it accepts, Pack
// re-encodes to b. The keys share one string and the values one copy of
// b's value bytes.
func Unpack(b []byte) (map[string][]byte, error) {
	m, err := unpack(b)
	if err != nil {
		return nil, fmt.Errorf("records: corrupt packed object: %w", err)
	}
	return m, nil
}

func unpack(b []byte) (map[string][]byte, error) {
	if len(b) == 0 {
		return nil, errTruncated
	}
	if b[0] != packVersion {
		return nil, fmt.Errorf("unknown version %d", b[0])
	}
	l := lengths{b: b[1:]}
	// Each entry's two lengths take at least two bytes.
	n := l.next(len(l.b) / 2)
	entryLens := l.b
	keyLen, valLen := 0, 0
	for i := 0; i < n && l.err == nil; i++ {
		keyLen += l.next(len(b))
		valLen += l.next(len(b))
	}
	if l.err != nil {
		return nil, l.err
	}
	if keyLen+valLen != len(l.b) {
		return nil, fmt.Errorf("lengths account for %d bytes, input holds %d", keyLen+valLen, len(l.b))
	}

	keys := string(l.b[:keyLen])
	vals := append([]byte(nil), l.b[keyLen:]...)
	m := make(map[string][]byte, n)
	l = lengths{b: entryLens}
	prev := ""
	for i := range n {
		k, v := l.next(len(b)), l.next(len(b))
		key := keys[:k]
		if i > 0 && prev >= key {
			return nil, fmt.Errorf("key %q out of order after %q", key, prev)
		}
		m[key] = vals[:v:v]
		keys, vals, prev = keys[k:], vals[v:], key
	}
	return m, nil
}
