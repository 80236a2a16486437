package client

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"haindex/internal/server"
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
// Every answer is the oracle's, and the refusals show as retries.
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
			for i, q := range d.queries(rand.New(rand.NewSource(89)), 40, bits, h) {
				got, err := r.Search(q, h)
				if err != nil {
					t.Fatalf("query %d: %v", i, err)
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
				t.Fatal("no request's turn came to the mis-listed replica")
			}
		})
	}
}
