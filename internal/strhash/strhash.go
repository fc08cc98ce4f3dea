// Package strhash provides the allocation-free string hash shared by the
// repository's partitioning layers (metadata lock stripes, data-cache
// shards, storage-engine shards). The hash/fnv Writer costs an allocation
// per call, which at per-operation frequency dominates profiles; the loop
// below is the same FNV-1a, inlined.
package strhash

// FNV32a returns the 32-bit FNV-1a hash of s. It takes bytes too, so a key
// assembled in a buffer hashes without becoming a string first.
func FNV32a[T string | []byte](s T) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}
