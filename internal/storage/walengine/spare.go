package walengine

// spare.go prepares the segment the next roll makes active. An append into
// a file that grows changes the file's size and block map, so the fsync
// that acknowledges it must commit the file system's journal too — and on
// ext4 (data=ordered) that commit also flushes other files' dirty data,
// compaction output included. An append into blocks already written and
// synced changes neither, and its fsync writes the data alone. So the next
// segment is created ahead of time, filled with zeros to SegmentBytes,
// fsynced, and its directory entry synced, all off s.mu; replay reads the
// zeros as the end of the log (see "Torn tails" in the package comment).

import "os"

// zeroBlock is the buffer a spare is filled from.
var zeroBlock [64 << 10]byte

// spare is the next active segment while a goroutine prepares it. The
// goroutine sets seg, unless preparing it failed, and then closes done; it
// never takes s.mu, so a holder of s.mu may wait for it.
type spare struct {
	done chan struct{}
	seg  *segment
}

// startSpareLocked reserves the next segment id and starts preparing it.
// Callers hold s.mu and have checked that no spare exists.
func (s *Store) startSpareLocked() {
	sp := &spare{done: make(chan struct{})}
	s.spare = sp
	id := s.next
	s.next++
	go s.prepareSpare(sp, id)
}

// prepareSpare creates segment id, zero-fills it to SegmentBytes and makes
// the file and its directory entry durable. On failure it removes what it
// made and leaves seg nil: the roll then creates the segment itself.
func (s *Store) prepareSpare(sp *spare, id int64) {
	defer close(sp.done)
	path := s.segPath(id)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return
	}
	if hook := s.spareHook; hook != nil {
		err = hook()
	}
	for off := int64(0); err == nil && off < s.cfg.SegmentBytes; off += int64(len(zeroBlock)) {
		_, err = f.WriteAt(zeroBlock[:min(int64(len(zeroBlock)), s.cfg.SegmentBytes-off)], off)
	}
	if err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = s.syncDir()
	}
	if err != nil {
		f.Close()
		os.Remove(path)
		return
	}
	sp.seg = &segment{id: id, f: f, prealloc: s.cfg.SegmentBytes}
}

// takeSpareLocked returns the prepared spare, waiting for its preparation
// to finish, or nil if there is none or it failed. Callers hold s.mu.
func (s *Store) takeSpareLocked() *segment {
	sp := s.spare
	if sp == nil {
		return nil
	}
	s.spare = nil
	<-sp.done
	return sp.seg
}

// dropSpareLocked waits out a spare in preparation and deletes it: a
// closed store keeps no file that holds no log. Callers hold s.mu.
func (s *Store) dropSpareLocked() {
	if seg := s.takeSpareLocked(); seg != nil {
		seg.f.Close()
		os.Remove(s.segPath(seg.id))
	}
}
