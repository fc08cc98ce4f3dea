package main

import (
	"context"
	"time"

	"aft/aft"
)

// deviceStore adds a fixed latency to every write call the engine has
// acknowledged, standing in for the device under an on-disk engine. This
// sandbox's virtual disk acknowledges an fsync in 0.3 ms from the host's
// cache; with nothing added, a WAL commit is mostly CPU queueing, and the
// workload's numbers swing with whatever else the host's CPUs are doing
// (measured in README.md, "Why the bounds are what they are").
type deviceStore struct {
	aft.Store
	latency time.Duration
}

func (s deviceStore) acknowledged(err error) error {
	if err == nil {
		time.Sleep(s.latency)
	}
	return err
}

func (s deviceStore) Put(ctx context.Context, key string, value []byte) error {
	return s.acknowledged(s.Store.Put(ctx, key, value))
}

func (s deviceStore) BatchPut(ctx context.Context, items map[string][]byte) error {
	return s.acknowledged(s.Store.BatchPut(ctx, items))
}

func (s deviceStore) Delete(ctx context.Context, key string) error {
	return s.acknowledged(s.Store.Delete(ctx, key))
}

func (s deviceStore) BatchDelete(ctx context.Context, keys []string) error {
	return s.acknowledged(s.Store.BatchDelete(ctx, keys))
}
