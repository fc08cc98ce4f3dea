package chaos

import (
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// echoSrv is a byte-echo TCP server behind the network fault injector —
// enough protocol to observe partitions, resets, drips, and delays
// without dragging the wire package into this package's tests.
type echoSrv struct {
	t  *testing.T
	h  *NetChaos
	wg sync.WaitGroup

	mu    sync.Mutex
	conns []net.Conn
}

func startEcho(t *testing.T, cfg NetConfig) *echoSrv {
	t.Helper()
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &echoSrv{t: t, h: WrapListener(raw, cfg)}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			c, err := s.h.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.conns = append(s.conns, c)
			s.mu.Unlock()
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				buf := make([]byte, 256)
				for {
					n, err := c.Read(buf)
					if n > 0 {
						if _, werr := c.Write(buf[:n]); werr != nil {
							return
						}
					}
					if err != nil {
						return
					}
				}
			}()
		}
	}()
	t.Cleanup(s.stop)
	return s
}

// stop closes the listener and every accepted conn, then waits for all
// handler goroutines — including ones parked against a partition — to
// exit. A hang here means partition parking leaks goroutines.
func (s *echoSrv) stop() {
	s.h.Close()
	s.mu.Lock()
	for _, c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *echoSrv) dial() net.Conn {
	s.t.Helper()
	c, err := net.Dial("tcp", s.h.Addr().String())
	if err != nil {
		s.t.Fatal(err)
	}
	s.t.Cleanup(func() { c.Close() })
	return c
}

// roundTrip writes msg and expects it echoed back within timeout.
func roundTrip(t *testing.T, c net.Conn, msg string, timeout time.Duration) error {
	t.Helper()
	c.SetDeadline(time.Now().Add(timeout))
	defer c.SetDeadline(time.Time{})
	if _, err := c.Write([]byte(msg)); err != nil {
		return err
	}
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(c, buf); err != nil {
		return err
	}
	if string(buf) != msg {
		t.Fatalf("echo = %q, want %q", buf, msg)
	}
	return nil
}

// TestNetChaosPassthrough: with no faults configured the wrapper is
// transparent.
func TestNetChaosPassthrough(t *testing.T) {
	s := startEcho(t, NetConfig{Seed: 1})
	c := s.dial()
	for i := 0; i < 3; i++ {
		if err := roundTrip(t, c, "hello", 2*time.Second); err != nil {
			t.Fatalf("round trip %d: %v", i, err)
		}
	}
	if got := s.h.NetFaultMetrics().Snapshot(); got.Conns != 1 || got.Delays != 0 || got.Resets != 0 {
		t.Fatalf("unexpected fault metrics on passthrough: %+v", got)
	}
}

// TestNetChaosPartitionBothAutoHeals: a two-way blackhole times out the
// existing conn AND fresh conns, then auto-heals on the configured accept
// — the heal-triggering conn is served clean.
func TestNetChaosPartitionBothAutoHeals(t *testing.T) {
	s := startEcho(t, NetConfig{Seed: 2})
	pooled := s.dial()
	if err := roundTrip(t, pooled, "warm", 2*time.Second); err != nil {
		t.Fatal(err)
	}

	s.h.SetPartition(PartitionBoth, 2)

	// The already-established conn is blackholed too.
	if err := roundTrip(t, pooled, "lost", 150*time.Millisecond); !isNetTimeout(err) {
		t.Fatalf("pooled conn during partition: err = %v, want timeout", err)
	}
	// First redial lands inside the partition window.
	c1 := s.dial()
	if err := roundTrip(t, c1, "lost2", 150*time.Millisecond); !isNetTimeout(err) {
		t.Fatalf("conn during partition: err = %v, want timeout", err)
	}
	// Second redial is the configured heal point: served clean.
	c2 := s.dial()
	if err := roundTrip(t, c2, "healed", 2*time.Second); err != nil {
		t.Fatalf("heal-triggering conn: %v", err)
	}
	// And the pooled conn works again (its blocked handler woke on heal;
	// the bytes written during the partition were delivered after it).
	buf := make([]byte, len("lost"))
	pooled.SetDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadFull(pooled, buf); err != nil {
		t.Fatalf("pooled conn after heal: %v", err)
	}
	if string(buf) != "lost" {
		t.Fatalf("held bytes after heal = %q, want %q", buf, "lost")
	}

	got := s.h.NetFaultMetrics().Snapshot()
	if got.Partitions != 1 || got.Heals != 1 {
		t.Fatalf("partitions/heals = %d/%d, want 1/1", got.Partitions, got.Heals)
	}
	if got.BlackholedConns != 1 {
		t.Fatalf("blackholed conns = %d, want 1", got.BlackholedConns)
	}
	if got.BlockedReads == 0 {
		t.Fatal("no reads blocked during a Both partition")
	}
}

// TestNetChaosPartitionOutboundSwallows: the gray failure — requests
// flow and the server does the work, but its responses vanish and it
// believes they were delivered.
func TestNetChaosPartitionOutboundSwallows(t *testing.T) {
	s := startEcho(t, NetConfig{Seed: 3})
	c := s.dial()
	if err := roundTrip(t, c, "warm", 2*time.Second); err != nil {
		t.Fatal(err)
	}

	s.h.SetPartition(PartitionOutbound, 0)
	if err := roundTrip(t, c, "ack-lost", 150*time.Millisecond); !isNetTimeout(err) {
		t.Fatalf("during outbound partition: err = %v, want timeout", err)
	}
	// The server-side write was swallowed, not blocked: the handler saw
	// success and is already parked on its next read.
	if got := s.h.NetFaultMetrics().Snapshot().SwallowedWrites; got == 0 {
		t.Fatal("no writes swallowed during outbound partition")
	}

	s.h.SetPartition(PartitionNone, 0) // manual heal
	if err := roundTrip(t, c, "after", 2*time.Second); err != nil {
		t.Fatalf("after heal: %v", err)
	}
}

// TestNetChaosResetMidFrame: a scheduled reset cuts the conn after
// delivering only half of a response frame.
func TestNetChaosResetMidFrame(t *testing.T) {
	s := startEcho(t, NetConfig{Seed: 4})
	c := s.dial()
	if err := roundTrip(t, c, "warm", 2*time.Second); err != nil {
		t.Fatal(err)
	}

	s.h.ResetAfterWrites(1)
	msg := []byte("12345678")
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	c.SetDeadline(time.Now().Add(2 * time.Second))
	got, err := io.ReadAll(c)
	if err != nil && isNetTimeout(err) {
		t.Fatalf("read after reset timed out (conn not cut); got %d bytes", len(got))
	}
	if len(got) >= len(msg) {
		t.Fatalf("received full frame (%d bytes) despite scheduled reset", len(got))
	}
	m := s.h.NetFaultMetrics().Snapshot()
	if m.Resets != 1 {
		t.Fatalf("resets = %d, want 1", m.Resets)
	}
	if s.h.PendingResets() != 0 {
		t.Fatalf("pending resets = %d, want 0", s.h.PendingResets())
	}
}

// TestNetChaosSlowDrip: with SlowDripRate 1 every conn limps — reads are
// dripped in small chunks but the stream stays correct.
func TestNetChaosSlowDrip(t *testing.T) {
	s := startEcho(t, NetConfig{Seed: 5, SlowDripRate: 1})
	c := s.dial()
	if err := roundTrip(t, c, "dripped-payload", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := s.h.NetFaultMetrics().Snapshot().DrippedConns; got != 1 {
		t.Fatalf("dripped conns = %d, want 1", got)
	}
}

// TestNetChaosDelayDeterminism: delay-spike decisions are hash-derived
// from (seed, conn, frame), so two identical sequential sessions against
// same-seed injectors inject identical spike counts.
func TestNetChaosDelayDeterminism(t *testing.T) {
	run := func(seed int64) int64 {
		s := startEcho(t, NetConfig{Seed: seed, DelayRate: 0.5})
		c := s.dial()
		for i := 0; i < 20; i++ {
			if err := roundTrip(t, c, "x", 2*time.Second); err != nil {
				t.Fatal(err)
			}
		}
		// The handler rolls for its next frame on entering Read, before
		// any bytes arrive: wait it out, or the count races that roll.
		s.stop()
		return s.h.NetFaultMetrics().Snapshot().Delays
	}
	a, b := run(42), run(42)
	if a != b {
		t.Fatalf("same-seed delay counts differ: %d vs %d", a, b)
	}
	if a == 0 {
		t.Fatal("DelayRate 0.5 over 20 frames injected no delays")
	}
}

// TestNetChaosInboundFreshConnBlocks: a conn accepted inside an inbound
// partition has its very first read parked; heal releases it.
func TestNetChaosInboundFreshConnBlocks(t *testing.T) {
	s := startEcho(t, NetConfig{Seed: 6})
	s.h.SetPartition(PartitionInbound, 0)
	c := s.dial()
	if err := roundTrip(t, c, "held", 150*time.Millisecond); !isNetTimeout(err) {
		t.Fatalf("during inbound partition: err = %v, want timeout", err)
	}
	s.h.SetPartition(PartitionNone, 0)
	// The held request is delivered after heal and echoed.
	buf := make([]byte, 4)
	c.SetDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatalf("after heal: %v", err)
	}
	if string(buf) != "held" {
		t.Fatalf("echo after heal = %q, want %q", buf, "held")
	}
}
