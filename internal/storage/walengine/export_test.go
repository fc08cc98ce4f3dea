package walengine

// Helpers only this package's tests use.

import "aft/internal/storage"

// SealActive rolls the active segment so everything appended so far
// becomes compactable, before an explicit Compact.
func (s *Store) SealActive() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return storage.ErrUnavailable
	}
	if s.active.size == 0 {
		return nil // nothing to seal; rolling would just litter empty files
	}
	return s.rollLocked()
}
