package core

import (
	"context"
	"fmt"
	"sort"

	"aft/internal/records"
)

// Bootstrap warms the node's metadata cache from the Transaction Commit
// Set in storage (§3.1): it lists persisted commit records and installs
// each one into the Commit Set Cache and key-version index. A node runs
// this when it starts — including when it replaces a failed node (§6.7) —
// so that data committed by any node in the deployment is visible to it.
// Each record locks only its own stripes, so a warm-up can run while the
// node already serves traffic.
//
// Bootstrap also completes the failure-recovery contract of §3.3.1: any
// transaction whose commit record is found is by construction fully
// durable (the write-ordering protocol persists data before the record),
// so installing the record declares the transaction successful.
func (n *Node) Bootstrap(ctx context.Context) error {
	keys, err := n.store.List(ctx, records.CommitPrefix)
	if err != nil {
		return fmt.Errorf("aft: listing commit set: %w", err)
	}
	// Commit keys sort by timestamp within a deployment's fixed-width
	// clock: the tail of the sorted listing is the most recent history,
	// which BootstrapLimit keeps.
	sort.Strings(keys)
	// Newest records first when a limit applies. Truncation hides
	// committed state from the warm-up, so it also flips the node into
	// partial-metadata mode: a read of a key whose records were dropped
	// falls back to the Transaction Commit Set instead of serving a
	// silent miss.
	if n.cfg.BootstrapLimit > 0 && len(keys) > n.cfg.BootstrapLimit {
		n.metrics.BootstrapTruncated.Add(int64(len(keys) - n.cfg.BootstrapLimit))
		keys = keys[len(keys)-n.cfg.BootstrapLimit:]
		n.partialMeta.Store(true)
	}
	// Fetch every record through the batched read pipeline: one BatchGet
	// round-trip group instead of one point Get per record. Beyond the
	// round-trip economy, this matters for recovery: a replacement node
	// bootstrapping through a flaky storage phase makes O(1) calls that
	// can fail instead of O(records), so promotion retries actually
	// converge (§6.7).
	payloads, err := n.batchFetchPayloads(ctx, keys)
	if err != nil {
		return fmt.Errorf("aft: reading commit set: %w", err)
	}
	for _, sk := range keys {
		payload, ok := payloads[sk]
		if !ok {
			continue // concurrently garbage collected
		}
		rec, err := records.UnmarshalCommitRecord(payload)
		if err != nil {
			return fmt.Errorf("aft: decoding commit record %s: %w", sk, err)
		}
		var buf [16]*stripe
		ss := n.appendStripes(buf[:0], rec.WriteSet)
		lockStripes(ss)
		installed := n.installLocked(rec, ss)
		unlockStripes(ss)
		if installed {
			n.tmu.Lock()
			n.committedByUUID[rec.UUID] = rec.ID()
			n.tmu.Unlock()
		}
	}
	return nil
}
