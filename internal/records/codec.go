package records

import (
	"encoding/binary"
	"errors"
	"fmt"
	"unsafe"

	"aft/internal/idgen"
)

// The stored form of a commit record is binary. It opens with a version
// byte and keeps its lengths ahead of its bytes, so a decoder validates
// every length against the input before it allocates, and then copies all
// of a record's text in one conversion.
//
// A commit record, version 1:
//
//	version   1 byte   (recordVersion)
//	flags     1 byte   (bit 0: Inline; every other bit zero)
//	timestamp 8 bytes  (big-endian two's complement)
//	uvarint   len(UUID), len(Node), len(SpillDir), len(TraceID)
//	uvarint   len(WriteSet), len(Spilled)
//	uvarint   the length of each WriteSet key, then of each Spilled key
//	uvarint   Inline only: the length of each WriteSet key's value
//	text      UUID, Node, SpillDir, TraceID, the WriteSet keys, the
//	          Spilled keys, back to back
//	values    Inline only: each WriteSet key's value, back to back, to the
//	          end of the input
//
// Every record lists its write set and its spilled keys in strictly
// ascending order, and an inline record spills nothing, so each of its
// keys names exactly one value. Every uvarint is minimal, and the lengths
// account for the input exactly, so an input the decoder accepts is the
// one encoding of what it decodes to.

const (
	recordVersion = 1

	flagInline = 1 << 0

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

// AppendBinary appends the record's stored form, without values, to dst
// and returns the extended slice. Into a dst with room for the record it
// allocates nothing.
func (r *CommitRecord) AppendBinary(dst []byte) ([]byte, error) {
	return r.appendRecord(dst, nil), nil
}

// InlineSize returns len(r.AppendInline(nil, values)).
func (r *CommitRecord) InlineSize(values [][]byte) int {
	n := r.binarySize()
	for _, v := range values {
		n += uvarintLen(uint64(len(v))) + len(v)
	}
	return n
}

// AppendInline appends the stored form of an inline record to dst: the
// record followed by values, where values[i] is the value of WriteSet[i].
// The record must spill nothing and list its write set in strictly
// ascending order, as every record's must, which a commit's sorted write
// buffer gives it. Into a
// dst with room for the record it allocates nothing.
func (r *CommitRecord) AppendInline(dst []byte, values [][]byte) []byte {
	if values == nil {
		values = [][]byte{} // an empty write set is still inline
	}
	return r.appendRecord(dst, values)
}

// appendRecord encodes the record, inline when values is non-nil.
func (r *CommitRecord) appendRecord(dst []byte, values [][]byte) []byte {
	var flags byte
	if values != nil {
		flags |= flagInline
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
	for _, v := range values {
		dst = binary.AppendUvarint(dst, uint64(len(v)))
	}
	for _, s := range text {
		dst = append(dst, s...)
	}
	for _, keys := range [...][]string{r.WriteSet, r.Spilled} {
		for _, k := range keys {
			dst = append(dst, k...)
		}
	}
	for _, v := range values {
		dst = append(dst, v...)
	}
	return dst
}

// Marshal returns the record's stored form in one allocation.
func (r *CommitRecord) Marshal() ([]byte, error) {
	return r.AppendBinary(make([]byte, 0, r.binarySize()))
}

// layout is a stored record's header, every length in it checked against
// the input.
type layout struct {
	inline   bool
	fields   [4]int // len(UUID), len(Node), len(SpillDir), len(TraceID)
	nws, nsp int
	// lens holds the keys' length uvarints, then an inline record's value
	// length uvarints; rest holds the text, then the values.
	lens, rest []byte
	// textLen is how many bytes of rest are text.
	textLen int
}

// parseLayout reads and validates b's header. It allocates nothing.
func parseLayout(b []byte) (layout, error) {
	var lay layout
	if len(b) < recordHeader {
		return lay, errTruncated
	}
	if b[0] != recordVersion {
		return lay, fmt.Errorf("unknown version %d", b[0])
	}
	if b[1]&^flagInline != 0 {
		return lay, fmt.Errorf("unknown flags %#x", b[1])
	}
	lay.inline = b[1]&flagInline != 0
	// Every length is checked against the input before anything is
	// allocated. Each key's length takes at least one byte, which bounds
	// the key counts.
	l := lengths{b: b[recordHeader:]}
	for i := range lay.fields {
		lay.fields[i] = l.next(len(b))
		lay.textLen += lay.fields[i]
	}
	lay.nws = l.next(len(l.b))
	lay.nsp = l.next(len(l.b) - lay.nws)
	if l.err == nil && lay.inline && lay.nsp != 0 {
		return lay, errors.New("inline record with spilled keys")
	}
	lay.lens = l.b
	for i := 0; i < lay.nws+lay.nsp && l.err == nil; i++ {
		lay.textLen += l.next(len(b))
	}
	valLen := 0
	for i := 0; lay.inline && i < lay.nws && l.err == nil; i++ {
		valLen += l.next(len(b))
	}
	if l.err != nil {
		return lay, l.err
	}
	if lay.textLen+valLen != len(l.b) {
		return lay, fmt.Errorf("lengths account for %d bytes of text and values, input holds %d", lay.textLen+valLen, len(l.b))
	}
	lay.rest = l.b
	return lay, nil
}

// UnmarshalCommitRecord decodes a stored commit record. It rejects an
// unknown version or flag, a truncated input, a length that runs past the
// input, bytes left over, a UUID or spill directory longer than an ID
// (idgen.MaxUUIDLen) and a write set or spilled keys out of order;
// whatever it
// accepts, Marshal re-encodes to b — or, for an inline record, AppendInline
// with the values InlineValue finds in b. An inline record's values are
// skipped: the record it returns holds keys only. The record comes back
// sealed: its strings and the storage keys of its versions all share one
// allocation, and a record of up to two keys holds its key slices in its
// own allocation (AllocRecord).
func UnmarshalCommitRecord(b []byte) (*CommitRecord, error) {
	r, err := unmarshalCommitRecord(b)
	if err != nil {
		return nil, fmt.Errorf("records: bad commit record: %w", err)
	}
	return r, nil
}

func unmarshalCommitRecord(b []byte) (*CommitRecord, error) {
	lay, err := parseLayout(b)
	if err != nil {
		return nil, err
	}
	// Every storage key of the record embeds its ID or its spill directory
	// (itself an ID): bounding both keeps the keys proportional to b.
	if lay.fields[0] > idgen.MaxUUIDLen || lay.fields[2] > idgen.MaxIDLen {
		return nil, fmt.Errorf("UUID of %d bytes or spill directory of %d, longer than an ID", lay.fields[0], lay.fields[2])
	}
	r, keys := AllocRecord(lay.nws + lay.nsp)
	r.Timestamp = int64(binary.BigEndian.Uint64(b[2:]))
	r.Inline = lay.inline
	// The record's text is first cut from a view of b, which sizes its
	// storage keys; then moved to the one buffer that holds the text and
	// the keys, so the record keeps nothing of b.
	src := lay.rest[:lay.textLen]
	lay.cut(r, keys, unsafe.String(unsafe.SliceData(src), len(src)))
	if err := r.checkOrder(); err != nil {
		return nil, err
	}
	r.rebase(r.buildKeys(src))
	return r, nil
}

// rebase re-slices the record's strings from text, a copy of the text
// they were cut from: they lie in it back to back, in the order the stored
// form lists them.
func (r *CommitRecord) rebase(text string) {
	next := func(s string) string {
		s = text[:len(s)]
		text = text[len(s):]
		return s
	}
	r.UUID = next(r.UUID)
	r.Node = next(r.Node)
	r.SpillDir = next(r.SpillDir)
	r.TraceID = next(r.TraceID)
	for _, keys := range [...][]string{r.WriteSet, r.Spilled} {
		for i := range keys {
			keys[i] = next(keys[i])
		}
	}
}

// cut sets r's strings to slices of text, the record's text as laid out in
// the stored form, and its WriteSet and Spilled to slices of keys, which
// has room for them.
func (lay *layout) cut(r *CommitRecord, keys []string, text string) {
	next := func(n int) string {
		s := text[:n]
		text = text[n:]
		return s
	}
	r.UUID = next(lay.fields[0])
	r.Node = next(lay.fields[1])
	r.SpillDir = next(lay.fields[2])
	r.TraceID = next(lay.fields[3])
	nws, nsp := lay.nws, lay.nsp
	if nws+nsp == 0 {
		return
	}
	keys = keys[:nws+nsp]
	l := lengths{b: lay.lens}
	for i := range keys {
		keys[i] = next(l.next(len(lay.lens)))
	}
	if nws > 0 {
		r.WriteSet = keys[:nws:nws]
	}
	if nsp > 0 {
		r.Spilled = keys[nws:]
	}
}

// InlineValue returns key's value in b, the stored form of an inline
// record, as a sub-slice of b with its capacity clipped: it copies and
// allocates nothing. It fails when b is not a well-formed inline record or
// key is not in its write set.
func InlineValue(b []byte, key string) ([]byte, error) {
	lay, err := parseLayout(b)
	switch {
	case err != nil:
		return nil, fmt.Errorf("records: bad commit record: %w", err)
	case !lay.inline:
		return nil, errors.New("records: commit record carries no values")
	}
	keyLens := lengths{b: lay.lens}
	valLens := lengths{b: lay.lens}
	for range lay.nws {
		valLens.next(len(b))
	}
	off := lay.fields[0] + lay.fields[1] + lay.fields[2] + lay.fields[3]
	voff := lay.textLen
	for range lay.nws {
		k, v := keyLens.next(len(b)), valLens.next(len(b))
		if string(lay.rest[off:off+k]) == key {
			return lay.rest[voff : voff+v : voff+v], nil
		}
		off, voff = off+k, voff+v
	}
	return nil, fmt.Errorf("records: key %q not in the inline record", key)
}
