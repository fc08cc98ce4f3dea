package core

import (
	"sort"

	"aft/internal/idgen"
)

// versionIndex maps each user key to the IDs of transactions that wrote a
// committed version of it, kept in ascending ID order. It backs candidate
// selection in Algorithm 1 and the supersedence check in Algorithm 2.
//
// A version list is owned by the stripe holding its key and is read and
// written only under that stripe's lock (read lock to read, write lock to
// write). Slices it hands out alias the list and are valid only while the
// caller still holds the lock.
type versionIndex map[string][]idgen.ID

// insert adds id to key's version list, preserving order; duplicates are
// ignored.
func (vi versionIndex) insert(key string, id idgen.ID) {
	versions := vi[key]
	i := sort.Search(len(versions), func(i int) bool { return !versions[i].Less(id) })
	if i < len(versions) && versions[i].Equal(id) {
		return
	}
	versions = append(versions, idgen.Null)
	copy(versions[i+1:], versions[i:])
	versions[i] = id
	vi[key] = versions
}

// remove deletes id from key's version list if present. It shifts the
// shorter side of the list over the hole, so retiring the oldest version —
// what the local sweep does, oldest first — moves nothing: the list just
// starts one slot later, and the next append that outgrows the backing
// array drops the dead prefix. The vacated slot is zeroed so the list keeps
// no reference to the removed ID's UUID.
func (vi versionIndex) remove(key string, id idgen.ID) {
	versions := vi[key]
	i := sort.Search(len(versions), func(i int) bool { return !versions[i].Less(id) })
	if i >= len(versions) || !versions[i].Equal(id) {
		return
	}
	if len(versions) == 1 {
		delete(vi, key)
		return
	}
	if i < len(versions)/2 {
		copy(versions[1:i+1], versions[:i])
		versions[0] = idgen.Null
		versions = versions[1:]
	} else {
		copy(versions[i:], versions[i+1:])
		versions[len(versions)-1] = idgen.Null
		versions = versions[:len(versions)-1]
	}
	vi[key] = versions
}

// latest returns the newest version of key, if any.
func (vi versionIndex) latest(key string) (idgen.ID, bool) {
	versions := vi[key]
	if len(versions) == 0 {
		return idgen.Null, false
	}
	return versions[len(versions)-1], true
}

// atLeast returns key's versions with ID >= lower, in ascending order. The
// result aliases the index: the caller must hold key's stripe lock for as
// long as it reads it, which is what lets Algorithm 1 walk a hot key's
// history without copying it.
func (vi versionIndex) atLeast(key string, lower idgen.ID) []idgen.ID {
	versions := vi[key]
	i := sort.Search(len(versions), func(i int) bool { return !versions[i].Less(lower) })
	return versions[i:]
}
