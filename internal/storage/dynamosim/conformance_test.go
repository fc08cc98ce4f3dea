// Package dynamosim holds the tests of the DynamoDB profile of kvengine
// (kvengine.NewDynamoDB). kvengine.TestParity pins the three profiles side
// by side.
package dynamosim

import (
	"testing"

	"aft/internal/storage"
	"aft/internal/storage/kvengine"
	"aft/internal/storage/storagetest"
)

func TestConformance(t *testing.T) {
	storagetest.Run(t, func() storage.Store { return kvengine.NewDynamoDB(kvengine.Options{}) })
}
