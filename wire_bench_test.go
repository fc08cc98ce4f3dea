package bench

// Wire benchmarks: the CPU cost of one RPC over real TCP loopback. Ping
// isolates the pure codec + transport path (no transaction state, no
// storage); Txn measures the full Start/Put/Commit cycle. Run with
// -benchmem: the allocation column is the codec story.

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"aft/internal/core"
	"aft/internal/storage/kvengine"
	"aft/internal/wire"
)

func benchWireClient(b *testing.B) *wire.Client {
	b.Helper()
	node, err := core.NewNode(core.Config{
		NodeID: "wire-bench",
		Store:  kvengine.NewDynamoDB(kvengine.Options{}),
	})
	if err != nil {
		b.Fatal(err)
	}
	srv := wire.NewServer(node)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	client, err := wire.DialWith(addr.String(), wire.DialConfig{
		MaxConns: 4, OpTimeout: 30 * time.Second,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(client.Close)
	return client
}

func BenchmarkWirePing(b *testing.B) {
	client := benchWireClient(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := client.Ping(ctx); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func BenchmarkWireTxn(b *testing.B) {
	client := benchWireClient(b)
	ctx := context.Background()
	var seq atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		key := fmt.Sprintf("k%d", seq.Add(1))
		for pb.Next() {
			txid, err := client.StartTransaction(ctx)
			if err != nil {
				b.Error(err)
				return
			}
			if err := client.Put(ctx, txid, key, []byte("bench-value")); err != nil {
				b.Error(err)
				return
			}
			if _, err := client.CommitTransaction(ctx, txid); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
