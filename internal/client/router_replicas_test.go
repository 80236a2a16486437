package client

import (
	"bufio"
	"math/rand"
	"net"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"haindex/internal/bitvec"
	"haindex/internal/server"
	"haindex/internal/wire"
)

// TestRouterSpreadsReplicas: a stream of queries must land on every replica
// of a shard — rotation moves each request's first attempt along the set.
// Before the fix the retry loop computed `attempt % len(replicas)` from
// attempt 0, which pinned every first attempt (hence all healthy-path
// traffic) to replica 0 and left the rest of the set cold.
func TestRouterSpreadsReplicas(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	const bits, parts, h = 32, 1, 3
	d := buildDeployment(t, rng, 600, bits, parts, map[int][]*server.FaultPlan{
		0: {nil, nil, nil},
	})
	r, err := Dial(d.addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	queries := d.queries(rng, 60, bits, h)
	for _, q := range queries {
		if _, err := r.Search(q, h); err != nil {
			t.Fatal(err)
		}
	}
	for i, s := range d.servers {
		if n := s.Stats().Requests; n == 0 {
			t.Fatalf("replica %d served no requests across %d distinct queries: routing is pinned", i, len(queries))
		}
	}
}

// TestRouterFailsOverDeadReplica: with one of a shard's three replicas gone,
// every request whose turn lands on it fails over to the next replica in
// rotation — one retry, never more — and every answer is still the oracle's.
func TestRouterFailsOverDeadReplica(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	const bits, parts, h = 16, 1, 2
	d := buildDeployment(t, rng, 300, bits, parts, map[int][]*server.FaultPlan{
		0: {nil, nil, nil},
	})
	d.servers[1].Close() // its address now refuses connections
	r, err := Dial(d.addrs, Options{Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	for i, q := range d.queries(rng, 30, bits, h) {
		before := r.Stats().Retries
		got, err := r.Search(q, h)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if retries := r.Stats().Retries - before; retries > 1 {
			t.Fatalf("query %d took %d retries, want at most 1", i, retries)
		}
		want := append([]int(nil), d.oracle.Search(q, h)...)
		sort.Ints(want)
		if len(want) == 0 {
			want = nil
		}
		if !equalInts(got, want) {
			t.Fatalf("query %d: router %v, oracle %v", i, got, want)
		}
	}
	if r.Stats().Retries == 0 {
		t.Fatal("no request's turn came to the dead replica")
	}
}

// TestRouterReplicatedMatchesOracle is the replicated acceptance test: a
// 2-shard × 3-replica deployment must return exactly the single-index
// oracle's answers, spread healthy-path load over every replica, and retry
// nothing.
func TestRouterReplicatedMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	const bits, parts, h = 32, 2, 3
	d := buildDeployment(t, rng, 900, bits, parts, map[int][]*server.FaultPlan{
		0: {nil, nil, nil},
		1: {nil, nil, nil},
	})
	r, err := Dial(d.addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	queries := d.queries(rng, 150, bits, h)
	for i, q := range queries {
		got, err := r.Search(q, h)
		if err != nil {
			t.Fatal(err)
		}
		want := append([]int(nil), d.oracle.Search(q, h)...)
		sort.Ints(want)
		if len(want) == 0 {
			want = nil
		}
		if !equalInts(got, want) {
			t.Fatalf("query %d: router %v, oracle %v", i, got, want)
		}
	}
	// Healthy steady state: every replica of every shard carries load. Dial
	// only handshakes the first replica per shard, so a non-zero request
	// count here is search traffic placed by the rotation.
	for i, s := range d.servers {
		if n := s.Stats().Requests; n == 0 {
			t.Fatalf("replica %d served no requests in a healthy replicated deployment", i)
		}
	}
	if st := r.Stats(); st.Retries != 0 {
		t.Fatalf("healthy deployment provoked %d retries", st.Retries)
	}
}

// TestRouterRefusesMislistedReplica: a replica listed under a shard it does
// not serve — another partition of the deployment's build, or the same
// partition of another build — fails its handshake, so a request whose turn
// lands on it retries on the next replica instead of taking its answer.
// Every answer is the oracle's. The refusal is found once, at the cost of
// one retry; from then on the rotation skips the replica, so a second batch
// of searches retries nothing.
func TestRouterRefusesMislistedReplica(t *testing.T) {
	const bits, parts, h = 32, 2, 3
	d := buildDeployment(t, rand.New(rand.NewSource(79)), 800, bits, parts, nil)
	other := buildDeployment(t, rand.New(rand.NewSource(83)), 800, bits, parts, nil)
	for name, stray := range map[string]string{
		"another partition": d.addrs[1][0],
		"another build":     other.addrs[0][0],
	} {
		t.Run(name, func(t *testing.T) {
			r, err := Dial([][]string{{d.addrs[0][0], stray}, d.addrs[1]}, Options{Backoff: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			queries := d.queries(rand.New(rand.NewSource(89)), 40, bits, h)
			for batch := 0; batch < 2; batch++ {
				for i, q := range queries {
					got, err := r.Search(q, h)
					if err != nil {
						t.Fatalf("batch %d, query %d: %v", batch, i, err)
					}
					want := append([]int(nil), d.oracle.Search(q, h)...)
					sort.Ints(want)
					if len(want) == 0 {
						want = nil
					}
					if !equalInts(got, want) {
						t.Fatalf("batch %d, query %d: router %v, oracle %v", batch, i, got, want)
					}
				}
				if n := r.Stats().Retries; n != 1 {
					t.Fatalf("%d retries after batch %d, want the 1 that found the mis-listed replica", n, batch)
				}
			}
		})
	}
}

// TestRouterFailsAtOnceWhenEveryReplicaIsRefused: once every replica of a
// shard has been refused at its handshake, a request to the shard fails at
// once — no backoff, no retry, no dial — with an error naming each replica.
func TestRouterFailsAtOnceWhenEveryReplicaIsRefused(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	r := newBackoffRouter(t, Options{MaxAttempts: 3, Backoff: 4 * time.Millisecond}, clk, func(n int64) int64 { return n - 1 })
	want := healthyHello.SnapshotMeta
	want.Length = 64 // the servers below hand out 32-bit codes: another build
	r.shards[0].replicas = nil
	var dials []*atomic.Int32
	for i := 0; i < 2; i++ {
		addr, n := startSheddingServer(t, 0)
		dials = append(dials, n)
		r.shards[0].replicas = append(r.shards[0].replicas, &replica{addr: addr, opts: r.opts, want: want})
	}
	named := func(err error) bool {
		if err == nil || !strings.Contains(err.Error(), "every replica refused") {
			return false
		}
		for _, rp := range r.shards[0].replicas {
			if !strings.Contains(err.Error(), rp.addr) {
				return false
			}
		}
		return true
	}
	// The first request finds both refusals: one on its first attempt, one
	// on its retry.
	if lg := statsOnce(r, routeRotate); !named(lg.err) {
		t.Fatalf("first request: %v, want both replicas refused by name", lg.err)
	}
	sleeps, retries := len(clk.sleeps), r.Stats().Retries
	if lg := statsOnce(r, routeRotate); !named(lg.err) {
		t.Fatalf("second request: %v, want both replicas refused by name", lg.err)
	}
	if len(clk.sleeps) != sleeps || r.Stats().Retries != retries {
		t.Fatalf("the second request slept %v and retried %d times", clk.sleeps[sleeps:], r.Stats().Retries-retries)
	}
	for i, n := range dials {
		if n.Load() != 1 {
			t.Fatalf("replica %d dialled %d times, want once", i, n.Load())
		}
	}
}

// startHelloServer runs an in-test shard server that answers the handshake
// with hello and then holds the connection until the client closes it. It
// returns its address and the number of connections still open.
func startHelloServer(t *testing.T, hello wire.HelloOK) (string, *atomic.Int32) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var open atomic.Int32
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			open.Add(1)
			go func() {
				defer open.Add(-1)
				defer conn.Close()
				br := bufio.NewReader(conn)
				if _, _, err := wire.ReadFrame(br); err != nil {
					return
				}
				if err := wire.WriteFrame(conn, wire.MsgHelloOK, hello.Append(nil)); err != nil {
					return
				}
				for {
					if _, _, err := wire.ReadFrame(br); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String(), &open
}

// TestDialClosesWhatItOpened: a Dial that fails — here two shards both claim
// partition 0 — closes the connections it made before it returns, instead
// of leaving each server's handler up until its idle timeout.
func TestDialClosesWhatItOpened(t *testing.T) {
	hello := healthyHello
	hello.Parts, hello.Pivots = 2, []bitvec.Code{bitvec.New(32)}
	a, openA := startHelloServer(t, hello)
	b, openB := startHelloServer(t, hello)
	r, err := Dial([][]string{{a}, {b}}, Options{})
	if err == nil {
		r.Close()
		t.Fatal("Dial accepted two servers of partition 0")
	}
	if !strings.Contains(err.Error(), "partition 0 served by both") {
		t.Fatalf("Dial error %v", err)
	}
	for deadline := time.Now().Add(2 * time.Second); openA.Load()+openB.Load() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d connections still open 2s after Dial failed", openA.Load()+openB.Load())
		}
	}
}
