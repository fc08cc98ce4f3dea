//go:build unix

package walengine

import (
	"errors"
	"fmt"
	"os"
	"syscall"
)

// lockDir takes an exclusive, non-blocking flock on the log directory, so
// one open engine at a time replays and appends to it: a restarted server
// cannot open a log its predecessor still holds. Closing the returned file
// releases the lock, and the kernel drops it with a killed process.
func lockDir(dir string) (*os.File, error) {
	f, err := os.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("walengine: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		if errors.Is(err, syscall.EWOULDBLOCK) {
			return nil, fmt.Errorf("%w: %s", ErrLocked, dir)
		}
		return nil, fmt.Errorf("walengine: locking %s: %w", dir, err)
	}
	return f, nil
}
