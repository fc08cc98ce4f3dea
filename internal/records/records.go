// Package records defines AFT's persistent record formats and the storage
// key layout.
//
// AFT never overwrites keys in place (§3.3): each key version written by a
// transaction lives under a storage key derived from the transaction's ID.
// A small write set travels inside the transaction's commit record — the
// entry in the Transaction Commit Set — which a commit then writes in one
// Put; a larger or spilled one is written to one unique storage key per
// version, and its commit record is persisted after all of them are
// durable. The commit record carries the transaction's write set, which is
// also the cowritten set of every key version it wrote (§3.2).
package records

import (
	"fmt"
	"slices"
	"strings"
	"unsafe"

	"aft/internal/idgen"
)

// Storage key prefixes. Data keys, commit records, and spilled intermediary
// data live in disjoint namespaces of the shared storage backend.
const (
	// DataPrefix namespaces key-version payloads.
	DataPrefix = "aft/d/"
	// CommitPrefix namespaces the Transaction Commit Set.
	CommitPrefix = "aft/c/"
	// SpillPrefix namespaces intermediary data proactively written by a
	// saturated Atomic Write Buffer before commit (§3.3). Spilled data is
	// invisible until the commit record referencing it is persisted.
	SpillPrefix = "aft/s/"
)

// escapedLen returns len(appendEscaped(nil, key)).
func escapedLen(key string) int {
	n := len(key)
	for i := 0; i < len(key); i++ {
		if key[i] == '%' || key[i] == '/' {
			n += 2
		}
	}
	return n
}

// appendEscaped appends key to dst with '%' and '/' (the layout separator)
// escaped as "%25" and "%2F", so a user key is safe to embed in a storage
// key. The common key holds neither byte and goes out in one append.
func appendEscaped(dst []byte, key string) []byte {
	start := 0
	for i := 0; i < len(key); i++ {
		var esc string
		switch key[i] {
		case '%':
			esc = "%25"
		case '/':
			esc = "%2F"
		default:
			continue
		}
		dst = append(dst, key[start:i]...)
		dst = append(dst, esc...)
		start = i + 1
	}
	return append(dst, key[start:]...)
}

// unescapeKey reverses appendEscaped.
func unescapeKey(key string) string {
	key = strings.ReplaceAll(key, "%2F", "/")
	return strings.ReplaceAll(key, "%25", "%")
}

// keyBufLen sizes the stack buffer the string key builders assemble a key
// in, so a key costs exactly its string; a longer key costs one more
// allocation.
const keyBufLen = 128

// AppendDataKey appends the unique storage key holding the version of key
// written by transaction id to dst.
func AppendDataKey(dst []byte, key string, id idgen.ID) []byte {
	var b [idgen.MaxIDLen]byte
	return appendDataKey(dst, key, id.Append(b[:0]))
}

// appendDataKey is AppendDataKey with the ID in its String form.
func appendDataKey(dst []byte, key string, id []byte) []byte {
	dst = appendEscaped(append(dst, DataPrefix...), key)
	return append(append(dst, '/'), id...)
}

// CommitKey returns the storage key of transaction id's commit record.
func CommitKey(id idgen.ID) string { return prefixedID(CommitPrefix, id) }

// prefixedID returns prefix + id.String() in one allocation.
func prefixedID(prefix string, id idgen.ID) string {
	var b [keyBufLen]byte
	return string(id.Append(append(b[:0], prefix...)))
}

// ParseCommitKey decodes a storage key produced by CommitKey.
func ParseCommitKey(storageKey string) (idgen.ID, error) {
	rest, ok := strings.CutPrefix(storageKey, CommitPrefix)
	if !ok {
		return idgen.Null, fmt.Errorf("records: %q is not a commit key", storageKey)
	}
	return idgen.Parse(rest)
}

// SpillKey returns the staging storage key for key within spill directory
// dir (a "<startTimestamp>_<uuid>" string identifying the transaction).
func SpillKey(dir, key string) string {
	var b [keyBufLen]byte
	return string(AppendSpillKey(b[:0], dir, key))
}

// AppendSpillKey appends SpillKey(dir, key) to dst.
func AppendSpillKey(dst []byte, dir, key string) []byte {
	dst = append(dst, SpillPrefix...)
	dst = append(dst, dir...)
	dst = append(dst, '/')
	return appendEscaped(dst, key)
}

// ParseSpillKey decodes a storage key produced by SpillKey.
func ParseSpillKey(storageKey string) (dir, key string, err error) {
	rest, ok := strings.CutPrefix(storageKey, SpillPrefix)
	if !ok {
		return "", "", fmt.Errorf("records: %q is not a spill key", storageKey)
	}
	i := strings.IndexByte(rest, '/')
	if i < 0 {
		return "", "", fmt.Errorf("records: malformed spill key %q", storageKey)
	}
	return rest[:i], unescapeKey(rest[i+1:]), nil
}

// CommitRecord is one entry of the Transaction Commit Set: the transaction's
// ID and write set. Its stored form either carries the value of every key
// in the write set (Inline) or is persisted only after every key version in
// the write set is durable under its own storage key (§3.3). The write set
// doubles as the cowritten set of each key version the transaction wrote.
type CommitRecord struct {
	// Timestamp and UUID form the transaction ID.
	Timestamp int64
	UUID      string
	// WriteSet lists the user keys written by the transaction, in
	// ascending order.
	WriteSet []string
	// Node identifies the committing AFT node (diagnostics only; the
	// protocols never depend on it).
	Node string
	// SpillDir, when non-empty, is the staging directory holding payloads
	// for the keys in Spilled (written early by a saturated write buffer).
	SpillDir string
	// Spilled lists the keys whose payload lives under SpillDir rather
	// than at the conventional data key, in ascending order.
	Spilled []string
	// Inline marks a record whose stored form carries the value of every
	// key in WriteSet (codec.go): the transaction wrote no other storage
	// key, so a read of any of its versions fetches the record and takes
	// its key's value (InlineValue). In memory a record holds keys only.
	Inline bool
	// TraceID carries the originating client's sampled trace ID, so
	// trace identity travels with the record through multicast delivery
	// and fault-manager recovery — the peers and the fault manager
	// attribute their work back to the same cross-node trace. Empty for
	// the (overwhelmingly common) untraced transactions, which then pay
	// one length byte for it in the stored form (codec.go).
	TraceID string

	// entries[i] is the entry key of WriteSet[i] (EntryKey) and key the
	// record's own storage key (Key): slices of one string, built once by
	// Seal or UnmarshalCommitRecord before the record is shared.
	entries []string
	key     string
}

// inlineKeys is how many keys a record carries inside its own allocation:
// the paper's transaction of two Puts (§6).
const inlineKeys = 2

// recordKeys is a record and room for a small transaction's keys and their
// entry keys, one allocation: the record's key slices point into keys when
// they fit.
type recordKeys struct {
	rec  CommitRecord
	keys [2 * inlineKeys]string
}

// AllocRecord returns a zero record and an empty slice with room for keys
// keys, from which the caller slices the record's WriteSet and Spilled.
// The same allocation holds room for the entry keys Seal builds. Up to
// inlineKeys keys live inside the record's own allocation; more take a
// slice of their own.
func AllocRecord(keys int) (*CommitRecord, []string) {
	rk := new(recordKeys)
	room := rk.keys[:]
	if keys > inlineKeys {
		room = make([]string, 2*keys)
	}
	half := len(room) / 2
	rk.rec.entries = room[half:half]
	return &rk.rec, room[:0:keys]
}

// ApproxBytes estimates the record's resident memory: string headers and
// slice headers are folded into a fixed per-record and per-key overhead.
// It is the unit of the node's metadata gauge (aft_node_metadata_bytes) —
// an estimate is enough, because the gauge tracks growth rather than
// measures the heap.
func (r *CommitRecord) ApproxBytes() int {
	b := 96 + len(r.UUID) + len(r.Node) + len(r.SpillDir) + len(r.TraceID) + len(r.key)
	for _, k := range r.WriteSet {
		b += 2*len(k) + 48 // write-set entry + version-index entry
	}
	for _, e := range r.entries {
		b += len(e) + 16
	}
	for _, k := range r.Spilled {
		b += len(k) + 16
	}
	return b
}

// ID returns the transaction ID of the record.
func (r *CommitRecord) ID() idgen.ID {
	return idgen.ID{Timestamp: r.Timestamp, UUID: r.UUID}
}

// Cowritten reports whether key is in the record's write set — i.e. whether
// key was cowritten with every other key version of this transaction. The
// write set is strictly ascending, so this is a binary search.
func (r *CommitRecord) Cowritten(key string) bool {
	_, ok := r.Find(key)
	return ok
}

// Find returns the index of key in the record's write set and true, or
// false when the transaction did not write key.
func (r *CommitRecord) Find(key string) (int, bool) {
	return slices.BinarySearch(r.WriteSet, key)
}

// Key returns the storage key of the record itself: CommitKey(r.ID()).
// For an inline record it is also where every version's value is read
// from.
func (r *CommitRecord) Key() string { return r.key }

// EntryKey returns the entry key of WriteSet[i]: the key the node's data
// cache holds that version's value under. It is the version's storage key
// (its data key, or its spill key), or for an inline record the record's
// key, a NUL byte and the user key. Record keys hold no NUL byte, so that
// splits one way only and two versions never share an entry key.
func (r *CommitRecord) EntryKey(i int) string { return r.entries[i] }

// Seal builds the storage keys of the record's versions, which Key and
// EntryKey return, as one string: one allocation, and into a record from
// AllocRecord nothing more. Call it once every field is set and before the
// record is shared; a sealed record is read by many goroutines and never
// changes again. Its write set and spilled keys must be strictly
// ascending: a commit takes them from its sorted write buffer and spill
// list, so anything else is a bug, and Seal panics.
func (r *CommitRecord) Seal() {
	if err := r.checkOrder(); err != nil {
		panic("records: sealing a record whose " + err.Error())
	}
	r.buildKeys(nil)
}

// checkOrder reports an error unless the record's write set and spilled
// keys are each strictly ascending: sorted and without repeats.
func (r *CommitRecord) checkOrder() error {
	for _, l := range [...]struct {
		name string
		keys []string
	}{{"write set", r.WriteSet}, {"spilled set", r.Spilled}} {
		for i := 1; i < len(l.keys); i++ {
			if l.keys[i-1] >= l.keys[i] {
				return fmt.Errorf("%s has key %q out of order after %q", l.name, l.keys[i], l.keys[i-1])
			}
		}
	}
	return nil
}

// spilled reports whether key's payload lives under the spill directory.
func (r *CommitRecord) spilled(key string) bool {
	_, ok := slices.BinarySearch(r.Spilled, key)
	return ok
}

// buildKeys allocates one buffer holding text and then the record's
// storage keys, sets the record's keys to slices of it, and returns the
// text's copy in it. The buffer is sized exactly, and each string is
// sliced from it once its bytes are written, which are never written
// again: so the strings are immutable, and they cost one allocation, which
// a string conversion would double.
func (r *CommitRecord) buildKeys(text []byte) string {
	var ib [idgen.MaxIDLen]byte
	id := r.ID().Append(ib[:0])
	n := len(text) + len(CommitPrefix) + len(id)
	for _, k := range r.WriteSet {
		n += r.entryLen(k, len(id))
	}
	buf := append(make([]byte, 0, n), text...)
	// buf has room for every key, so appending never moves it: all views
	// the whole of it, and each key is sliced from all once it is written.
	all := unsafe.String(unsafe.SliceData(buf), n)
	r.entries = r.entries[:0]
	for _, k := range r.WriteSet {
		start := len(buf)
		buf = r.appendEntryKey(buf, k, id)
		r.entries = append(r.entries, all[start:len(buf)])
	}
	start := len(buf)
	buf = append(append(buf, CommitPrefix...), id...)
	r.key = all[start:len(buf)]
	return all[:len(text)]
}

// appendEntryKey appends key's entry key (EntryKey) to dst; id is the
// record's ID in its String form.
func (r *CommitRecord) appendEntryKey(dst []byte, key string, id []byte) []byte {
	switch {
	case r.Inline:
		dst = append(append(dst, CommitPrefix...), id...)
		return append(append(dst, 0), key...)
	case r.spilled(key):
		return AppendSpillKey(dst, r.SpillDir, key)
	default:
		return appendDataKey(dst, key, id)
	}
}

// entryLen returns len(r.appendEntryKey(nil, key, id)) for an id of idLen
// bytes.
func (r *CommitRecord) entryLen(key string, idLen int) int {
	switch {
	case r.Inline:
		return len(CommitPrefix) + idLen + 1 + len(key)
	case r.spilled(key):
		return len(SpillPrefix) + len(r.SpillDir) + 1 + escapedLen(key)
	default:
		return len(DataPrefix) + escapedLen(key) + 1 + idLen
	}
}

// NewCommitRecord builds a sealed record for transaction id writing
// writeSet from node. The write set is copied, sorted and rid of repeats.
func NewCommitRecord(id idgen.ID, writeSet []string, node string) *CommitRecord {
	r, ws := AllocRecord(len(writeSet))
	ws = append(ws, writeSet...)
	slices.Sort(ws)
	r.Timestamp, r.UUID, r.Node = id.Timestamp, id.UUID, node
	if len(ws) > 0 {
		r.WriteSet = slices.Compact(ws)
	}
	r.Seal()
	return r
}

// KeyVersion names one version of one user key.
type KeyVersion struct {
	Key string
	ID  idgen.ID
}

// String renders the key version for diagnostics.
func (kv KeyVersion) String() string { return kv.Key + "@" + kv.ID.String() }
