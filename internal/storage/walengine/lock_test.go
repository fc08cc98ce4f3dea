//go:build unix

package walengine

import (
	"errors"
	"testing"
)

// TestDirLock: an open engine holds its log directory, so a second Open of
// it fails with ErrLocked. Close and Crash release the directory, and
// Reopen takes it again.
func TestDirLock(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	mustPut(t, s, "k", "v")
	wantLocked := func(when string) {
		t.Helper()
		if other, err := Open(dir, Options{}); !errors.Is(err, ErrLocked) {
			if err == nil {
				other.Close()
			}
			t.Fatalf("second Open %s = %v, want ErrLocked", when, err)
		}
	}
	wantLocked("of an open engine")
	for _, stop := range []struct {
		name string
		do   func() error
	}{{"Close", s.Close}, {"Crash", s.Crash}} {
		if err := stop.do(); err != nil {
			t.Fatal(err)
		}
		// The directory is free: another engine opens it, reads the
		// acknowledged write, and releases it again.
		other := openT(t, dir, Options{})
		wantGet(t, other, "k", "v")
		if err := other.Close(); err != nil {
			t.Fatal(err)
		}
		if err := s.Reopen(); err != nil {
			t.Fatalf("Reopen after %s: %v", stop.name, err)
		}
		wantLocked("after Reopen following " + stop.name)
	}
	// A refused Open leaves the holder working.
	wantGet(t, s, "k", "v")
}
