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
type versionIndex map[string]versionList

// versionList is one key's versions: ids[head:], in ascending order, on a
// backing array that starts at ids[0]. The head slots are free: the sweep
// retires the oldest version by moving head, and the next append that
// finds the array full slides the list back over them.
type versionList struct {
	ids  []idgen.ID
	head int
}

// insert adds id to key's version list, preserving order; duplicates are
// ignored. A full array whose free head slots are at least as many as its
// versions takes the list back to its start, and only a fuller one grows:
// each slide moves no more versions than retirements freed slots for it,
// so an insert stays O(1) amortised beyond its search and shift, and a key
// whose versions come and go at a steady count stops allocating.
func (vi versionIndex) insert(key string, id idgen.ID) {
	l := vi[key]
	versions := l.ids[l.head:]
	i := sort.Search(len(versions), func(i int) bool { return !versions[i].Less(id) })
	if i < len(versions) && versions[i].Equal(id) {
		return
	}
	if len(l.ids) == cap(l.ids) && l.head > 0 {
		ids := l.ids
		if l.head < len(versions) {
			ids = make([]idgen.ID, len(versions), 2*len(versions))
		}
		n := copy(ids, versions)
		clear(ids[n:])
		l.ids, l.head = ids[:n], 0
	}
	l.ids = append(l.ids, idgen.Null)
	copy(l.ids[l.head+i+1:], l.ids[l.head+i:])
	l.ids[l.head+i] = id
	vi[key] = l
}

// remove deletes id from key's version list if present. It shifts the
// shorter side of the list over the hole, so retiring the oldest version —
// what the local sweep does, oldest first — moves nothing: head moves one
// slot on, and insert reuses the freed slot once the array is full. The
// vacated slot is zeroed so the list keeps no reference to the removed
// ID's UUID.
func (vi versionIndex) remove(key string, id idgen.ID) {
	l := vi[key]
	versions := l.ids[l.head:]
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
		l.head++
	} else {
		copy(versions[i:], versions[i+1:])
		versions[len(versions)-1] = idgen.Null
		l.ids = l.ids[:len(l.ids)-1]
	}
	vi[key] = l
}

// latest returns the newest version of key, if any.
func (vi versionIndex) latest(key string) (idgen.ID, bool) {
	l := vi[key]
	if len(l.ids) == l.head {
		return idgen.Null, false
	}
	return l.ids[len(l.ids)-1], true
}

// atLeast returns key's versions with ID >= lower, in ascending order. The
// result aliases the index: the caller must hold key's stripe lock for as
// long as it reads it, which is what lets Algorithm 1 walk a hot key's
// history without copying it.
func (vi versionIndex) atLeast(key string, lower idgen.ID) []idgen.ID {
	l := vi[key]
	versions := l.ids[l.head:]
	i := sort.Search(len(versions), func(i int) bool { return !versions[i].Less(lower) })
	return versions[i:]
}
