package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"aft/aft"
)

// workload is one set of inputs plus the deployment it is driven against.
// See README.md for why each exists and what it is expected not to move.
type workload struct {
	name       string
	clients    int // closed-loop client goroutines
	keys       int
	valueBytes int
	zipf       float64 // key skew; 0 draws keys uniformly
	shape      txnShape
	warmTxns   int // transactions served, across all clients, before set-up counts as done

	nodes     int
	overWire  bool // clients reach node 1 through aft.Serve / aft.DialWith
	direct    bool // clients call node 1 in-process (no lb, no wire)
	dataCache int  // data-cache entries per node; 0 leaves the cache off
	// newStore builds the storage engine; dir is a fresh directory for
	// engines that live on disk.
	newStore func(seed int64, dir string) (aft.Store, error)
	onDisk   bool
	// deviceLatency, when set, is added to every acknowledged write of the
	// engine (deviceStore).
	deviceLatency time.Duration
}

var workloads = []workload{
	{
		name: "wire_rw_mem", clients: 4, keys: 1000, valueBytes: 1024, zipf: 1.0,
		shape: shapePaperMix, warmTxns: 10000,
		nodes: 1, overWire: true, dataCache: 4096,
		newStore: func(seed int64, _ string) (aft.Store, error) {
			return aft.NewDynamoDBStore(aft.LatencyNone, seed), nil
		},
	},
	{
		name: "wire_commit_wal", clients: 32, keys: 1000, valueBytes: 1024, zipf: 1.0,
		shape: shapeWriteOnly, warmTxns: 4000,
		nodes: 1, overWire: true, onDisk: true, deviceLatency: 2 * time.Millisecond,
		newStore: func(_ int64, dir string) (aft.Store, error) { return aft.NewWALStore(dir) },
	},
	{
		name: "node_read_cold", clients: 16, keys: 20000, valueBytes: 1024,
		shape: shapeReadOnly, warmTxns: 2000,
		nodes: 1, direct: true, dataCache: 4096,
		newStore: func(seed int64, _ string) (aft.Store, error) {
			return aft.NewRedisStore(aft.LatencyCloud, seed, 0), nil
		},
	},
	{
		name: "cluster_rw_dynamo", clients: 32, keys: 1000, valueBytes: 4096, zipf: 1.0,
		shape: shapePaperMix, warmTxns: 1500,
		nodes: 3,
		newStore: func(seed int64, _ string) (aft.Store, error) {
			return aft.NewDynamoDBStore(aft.LatencyCloud, seed), nil
		},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// backgroundPeriod is the multicast and local-GC period of every deployment:
// short enough that each loop completes dozens of cycles in a run, so their
// cost is in the numbers and metadata does not pile up.
//
// globalGCPeriod is shorter because the cluster's collector retires at most
// 5 000 transactions a round: at one round a second the two wire workloads
// (6-7 000 txn/s here) outrun it, storage grows without bound and
// throughput sinks 25 % over a run. Four rounds a second give it 20 000
// txn/s, about three times the fastest workload.
const (
	backgroundPeriod = time.Second
	globalGCPeriod   = 250 * time.Millisecond
)

// deployment is one built system under test and the handles into it.
type deployment struct {
	cluster *aft.Cluster
	store   aft.Store    // the engine itself
	traced  *tracedStore // the decorator around it; nil on gated runs
	server  *aft.Server
	remote  *aft.RemoteClient
	handle  aft.Client // what the clients call
	dir     string     // on-disk engines only
}

// deploy builds the workload's deployment through the public aft API.
// scratch is where on-disk engines may create directories; traceStore puts
// the store decorator in front of the engine.
func deploy(w workload, seed int64, scratch string, traceStore bool) (*deployment, error) {
	d := &deployment{}
	if w.onDisk {
		if err := os.MkdirAll(scratch, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(scratch, w.name+"-")
		if err != nil {
			return nil, err
		}
		d.dir = dir
	}
	store, err := w.newStore(seed, d.dir)
	if err != nil {
		d.close()
		return nil, fmt.Errorf("opening store: %w", err)
	}
	d.store = store
	handed := store
	if w.deviceLatency > 0 {
		handed = deviceStore{Store: store, latency: w.deviceLatency}
	}
	if traceStore {
		d.traced = newTracedStore(handed)
		handed = d.traced
	}
	d.cluster, err = aft.NewCluster(aft.ClusterConfig{
		Nodes: w.nodes,
		Store: handed,
		Node: aft.NodeConfig{
			EnableDataCache:  w.dataCache > 0,
			DataCacheEntries: w.dataCache,
		},
		MulticastPeriod:  backgroundPeriod,
		PruneMulticast:   true,
		LocalGCInterval:  backgroundPeriod,
		GlobalGCInterval: globalGCPeriod,
	})
	if err != nil {
		d.close()
		return nil, err
	}
	if err := d.cluster.Start(context.Background()); err != nil {
		d.close()
		return nil, err
	}
	switch {
	case w.overWire:
		srv, addr, err := aft.Serve(d.nodes()[0], "127.0.0.1:0")
		if err != nil {
			d.close()
			return nil, err
		}
		d.server = srv
		d.remote, err = aft.DialWith(addr, aft.DialConfig{MaxConns: 2})
		if err != nil {
			d.close()
			return nil, err
		}
		d.handle = d.remote
	case w.direct:
		d.handle = d.nodes()[0]
	default:
		d.handle = d.cluster.Client()
	}
	return d, nil
}

// visibilityWait bounds how long eventually waits for the nodes to converge:
// several multicast periods, so only a write that is really lost runs it out.
const visibilityWait = 5 * backgroundPeriod

// eventually runs check after a multicast round on every node, again until
// it passes or visibilityWait is over, and returns the last try's result.
// One Cluster.FlushMulticast is not a barrier: it does not wait for a
// periodic round that has drained its node's records and not yet delivered
// them, so a check right behind it can still be served a version one round
// old (seen about once in 15 runs on a busy host). A lost write never heals,
// so waiting hides nothing.
func (d *deployment) eventually(log io.Writer, what string, check func() (int, error)) (n int, err error) {
	deadline := time.Now().Add(visibilityWait)
	for try := 1; ; try++ {
		d.cluster.FlushMulticast()
		if n, err = check(); err == nil || time.Now().After(deadline) {
			if try > 1 {
				fmt.Fprintf(log, "# %s: %d tries until the nodes agreed\n", what, try)
			}
			return n, err
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// nodes returns the deployment's live nodes in node-ID order.
func (d *deployment) nodes() []*aft.Node {
	ns := d.cluster.Nodes()
	sort.Slice(ns, func(i, j int) bool { return ns[i].ID() < ns[j].ID() })
	return ns
}

// stopServing shuts the client pool, the server and the cluster's loops,
// leaving the store open.
func (d *deployment) stopServing() {
	if d.remote != nil {
		d.remote.Close()
		d.remote = nil
	}
	if d.server != nil {
		_ = d.server.Close() // listener teardown; nothing depends on its error
		d.server = nil
	}
	if d.cluster != nil {
		d.cluster.Stop()
	}
}

// close tears the deployment down and removes its directory.
func (d *deployment) close() {
	d.stopServing()
	if w, ok := d.store.(walStore); ok {
		_ = w.Close() // the directory is deleted next
	}
	if d.dir != "" {
		_ = os.RemoveAll(d.dir)
	}
}

// dirBytes sums the sizes of the regular files under dir. The engine may
// be compacting while it walks, so a file that vanishes is skipped.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if os.IsNotExist(err) {
			return nil
		}
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}
