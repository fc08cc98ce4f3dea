// Package aft is the public API of this repository: a fault-tolerance shim
// for serverless computing implementing the AFT system of Sreekanti et al.
// (EuroSys 2020).
//
// AFT interposes between a Functions-as-a-Service platform and a key-value
// storage engine. Each logical request — which may span multiple functions
// — runs as one transaction: its writes are buffered and atomically
// installed at commit, and its reads are guaranteed read atomic isolation
// (no dirty reads, no fractured reads) plus read-your-writes and
// repeatable reads, all without storage-layer coordination.
//
// Quick start:
//
//	store := aft.NewDynamoDBStore(aft.LatencyNone, 0)
//	node, _ := aft.NewNode(aft.NodeConfig{NodeID: "node-1", Store: store})
//	err := aft.RunTransaction(ctx, node, func(txn *aft.Txn) error {
//	    cart, _ := txn.Get("cart")
//	    return txn.Put("cart", append(cart, newItem...))
//	})
//
// For multi-node deployments, see NewCluster: every node multicasts its
// commit set to every other node, and the global GC deletes a transaction
// once every node has locally deleted it. For networked deployments, see
// Serve and Dial.
package aft

import (
	"context"

	"aft/internal/cluster"
	"aft/internal/core"
	"aft/internal/idgen"
	"aft/internal/lb"
	"aft/internal/storage"
	"aft/internal/wire"
)

// Core type aliases: the implementation lives in internal packages; these
// aliases are the supported public names.
type (
	// ID is a transaction identifier: a ⟨timestamp, uuid⟩ pair totally
	// ordered by timestamp, then UUID.
	ID = idgen.ID
	// Store is the storage engine abstraction AFT runs over. AFT only
	// assumes acknowledged writes are durable.
	Store = storage.Store
	// Node is a single AFT shim replica.
	Node = core.Node
	// NodeConfig parameterizes a Node.
	NodeConfig = core.Config
	// Cluster is a multi-replica AFT deployment with multicast, garbage
	// collection, fault management, and a load-balanced client.
	Cluster = cluster.Cluster
	// ClusterConfig parameterizes a Cluster.
	ClusterConfig = cluster.Config
)

// Sentinel errors re-exported from the core.
var (
	// ErrKeyNotFound means no committed version of the key exists.
	ErrKeyNotFound = core.ErrKeyNotFound
	// ErrNoValidVersion means no version is compatible with the
	// transaction's read set; abort and retry (§3.6 of the paper).
	ErrNoValidVersion = core.ErrNoValidVersion
	// ErrTxnNotFound means the transaction is unknown (never started,
	// finished, or lost to a node failure).
	ErrTxnNotFound = core.ErrTxnNotFound
	// ErrTxnFinished means the transaction already committed or aborted.
	ErrTxnFinished = core.ErrTxnFinished
	// ErrVersionVanished means the global GC collected a read version
	// mid-transaction; redo the transaction. The unanimous GC vote rules
	// this out except when a node re-installs a record between the vote
	// and the delete: a standby's bootstrap, or a storage fallback read on
	// a node with partial metadata (BootstrapLimit or a metadata-budget
	// spill).
	ErrVersionVanished = core.ErrVersionVanished
	// ErrUnavailable means the storage engine reported a (possibly
	// transient) failure; RunTransaction treats it as retriable.
	ErrUnavailable = storage.ErrUnavailable
	// ErrBackendGone means the node serving this transaction left the
	// cluster mid-request (a node failure); redo the transaction.
	ErrBackendGone = lb.ErrBackendGone
	// ErrOverloaded means admission control shed the request: the node is
	// at its concurrency limit with a full wait queue. Retry after
	// backoff (RunTransactionPolicy with a BackoffBase does this).
	ErrOverloaded = core.ErrOverloaded
	// ErrDeadlineExceeded means an op ran out of time budget — the conn
	// deadline fired against a partitioned or hung server, or the server
	// abandoned work whose wire-carried deadline expired. Retriable while
	// the caller's ctx still has budget.
	ErrDeadlineExceeded = wire.ErrDeadlineExceeded
)

// Client is the transactional surface shared by a *Node, the cluster's
// load-balanced client, and remote connections from Dial.
type Client interface {
	StartTransaction(ctx context.Context) (string, error)
	Get(ctx context.Context, txid, key string) ([]byte, error)
	// MultiGet reads a batch of keys with the same read-atomic guarantees
	// as issuing the Gets one by one, but plans them under one metadata
	// pass and fetches all cache-missing payloads in batched storage
	// round trips (and, over the wire, one RPC).
	MultiGet(ctx context.Context, txid string, keys []string) ([][]byte, error)
	Put(ctx context.Context, txid, key string, value []byte) error
	CommitTransaction(ctx context.Context, txid string) (ID, error)
	AbortTransaction(ctx context.Context, txid string) error
}

// NewNode constructs an AFT replica over cfg.Store. Call Bootstrap on the
// returned node when joining an existing deployment.
func NewNode(cfg NodeConfig) (*Node, error) { return core.NewNode(cfg) }

// NewCluster assembles a multi-node deployment; call Start, use Client for
// requests, and Stop when done.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return cluster.New(cfg) }

// Server exposes a Node over TCP.
type Server = wire.Server

// Serve starts a TCP server for node on addr ("host:port", ":0" for an
// ephemeral port). Close the returned server to stop.
func Serve(node *Node, addr string) (*Server, string, error) {
	srv := wire.NewServer(node)
	a, err := srv.Listen(addr)
	if err != nil {
		return nil, "", err
	}
	return srv, a.String(), nil
}

// RemoteClient is a Client backed by a TCP connection pool to one node.
type RemoteClient = wire.Client

// Dial connects to an AFT server. The returned client implements Client
// and can be placed behind a load balancer.
func Dial(addr string) (*RemoteClient, error) { return wire.Dial(addr, 0) }

// DialConfig tunes DialWith: pool size, per-op timeout (the conn
// deadline bounding every RPC), and dial timeout.
type DialConfig = wire.DialConfig

// DialWith is Dial with explicit pool and timeout configuration.
func DialWith(addr string, cfg DialConfig) (*RemoteClient, error) { return wire.DialWith(addr, cfg) }
