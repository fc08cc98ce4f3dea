// Package s3sim holds the tests of the S3 profile of kvengine
// (kvengine.NewS3). kvengine.TestParity pins the three profiles side
// by side.
package s3sim

import (
	"testing"

	"aft/internal/storage"
	"aft/internal/storage/kvengine"
	"aft/internal/storage/storagetest"
)

func TestConformance(t *testing.T) {
	storagetest.Run(t, func() storage.Store { return kvengine.NewS3(kvengine.Options{}) })
}
