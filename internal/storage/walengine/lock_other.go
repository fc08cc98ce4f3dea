//go:build !unix

package walengine

import (
	"fmt"
	"os"
)

// lockDir opens the log directory without locking it: this platform has
// no flock, so two engines opening one directory are not refused.
func lockDir(dir string) (*os.File, error) {
	f, err := os.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("walengine: %w", err)
	}
	return f, nil
}
