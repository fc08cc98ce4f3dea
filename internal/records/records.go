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
	"strings"

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
	dst = append(dst, DataPrefix...)
	dst = appendEscaped(dst, key)
	dst = append(dst, '/')
	return id.Append(dst)
}

// CommitKey returns the storage key of transaction id's commit record.
func CommitKey(id idgen.ID) string { return prefixedID(CommitPrefix, id) }

// AppendCommitKey appends CommitKey(id) to dst.
func AppendCommitKey(dst []byte, id idgen.ID) []byte {
	return id.Append(append(dst, CommitPrefix...))
}

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
	// WriteSet lists the user keys written by the transaction.
	WriteSet []string
	// Node identifies the committing AFT node (diagnostics only; the
	// protocols never depend on it).
	Node string
	// SpillDir, when non-empty, is the staging directory holding payloads
	// for the keys in Spilled (written early by a saturated write buffer).
	SpillDir string
	// Spilled lists the keys whose payload lives under SpillDir rather
	// than at the conventional data key.
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
}

// inlineKeys is how many keys a record carries inside its own allocation:
// the paper's transaction of two Puts (§6).
const inlineKeys = 2

// recordKeys is a record and room for a small transaction's keys, one
// allocation: the record's key slices point into keys when they fit.
type recordKeys struct {
	rec  CommitRecord
	keys [inlineKeys]string
}

// AllocRecord returns a zero record and an empty slice with room for keys
// keys, from which the caller slices the record's WriteSet and Spilled. Up
// to inlineKeys keys live inside the record's own allocation; more take a
// slice of their own.
func AllocRecord(keys int) (*CommitRecord, []string) {
	rk := new(recordKeys)
	if keys <= inlineKeys {
		return &rk.rec, rk.keys[:0:keys]
	}
	return &rk.rec, make([]string, 0, keys)
}

// ApproxBytes estimates the record's resident memory: string headers and
// slice headers are folded into a fixed per-record and per-key overhead.
// It is the unit of the node's metadata gauge (aft_node_metadata_bytes) —
// an estimate is enough, because the gauge tracks growth rather than
// measures the heap.
func (r *CommitRecord) ApproxBytes() int {
	b := 96 + len(r.UUID) + len(r.Node) + len(r.SpillDir) + len(r.TraceID)
	for _, k := range r.WriteSet {
		b += 2*len(k) + 48 // write-set entry + version-index entry
	}
	for _, k := range r.Spilled {
		b += len(k) + 16
	}
	return b
}

// AppendStorageKeyFor appends the storage key holding this transaction's
// version of key to dst: the commit key of an inline record, the spill key
// of a spilled payload, or else the data key.
func (r *CommitRecord) AppendStorageKeyFor(dst []byte, key string) []byte {
	if r.Inline {
		return AppendCommitKey(dst, r.ID())
	}
	for _, s := range r.Spilled {
		if s == key {
			return AppendSpillKey(dst, r.SpillDir, key)
		}
	}
	return AppendDataKey(dst, key, r.ID())
}

// ID returns the transaction ID of the record.
func (r *CommitRecord) ID() idgen.ID {
	return idgen.ID{Timestamp: r.Timestamp, UUID: r.UUID}
}

// Cowritten reports whether key is in the record's write set — i.e. whether
// key was cowritten with every other key version of this transaction.
func (r *CommitRecord) Cowritten(key string) bool {
	for _, k := range r.WriteSet {
		if k == key {
			return true
		}
	}
	return false
}

// NewCommitRecord builds a record for transaction id writing writeSet from
// node. The write set is copied.
func NewCommitRecord(id idgen.ID, writeSet []string, node string) *CommitRecord {
	return &CommitRecord{
		Timestamp: id.Timestamp,
		UUID:      id.UUID,
		WriteSet:  append([]string(nil), writeSet...),
		Node:      node,
	}
}

// KeyVersion names one version of one user key.
type KeyVersion struct {
	Key string
	ID  idgen.ID
}

// String renders the key version for diagnostics.
func (kv KeyVersion) String() string { return kv.Key + "@" + kv.ID.String() }
