package client

import (
	"fmt"
	"math/rand"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"haindex/internal/bitvec"
	"haindex/internal/server"
)

// countingConn counts the Write calls — on a TCP connection, the write
// syscalls — made through it, and remembers the longest.
type countingConn struct {
	net.Conn
	writes, longest *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	if n := int64(len(p)); n > c.longest.Load() {
		c.longest.Store(n)
	}
	return c.Conn.Write(p)
}

// countWrites wraps every pooled connection of r and returns the shared
// counters: Writes issued, and the longest of them in bytes.
func countWrites(r *Router) (writes, longest *atomic.Int64) {
	writes, longest = new(atomic.Int64), new(atomic.Int64)
	for _, sh := range r.shards {
		for _, rp := range sh.replicas {
			rp.mu.Lock()
			if rp.conn != nil {
				rp.conn = countingConn{rp.conn, writes, longest}
			}
			rp.mu.Unlock()
		}
	}
	return writes, longest
}

// TestRouterOneWritePerRequestFrame: whatever the batch size or the frame
// type, every shard request the router issues is exactly one Write on the
// connection — a second Write per frame is a second syscall, a second TCP
// segment and often a second wake-up of the server.
func TestRouterOneWritePerRequestFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	const bits = 64
	d := buildDeployment(t, rng, 600, bits, 2, nil)
	r, err := Dial(d.addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	writes, longest := countWrites(r)
	check := func(what string, f func() error) {
		t.Helper()
		w0, s0 := writes.Load(), r.Stats()
		if err := f(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		frames := r.Stats().ShardRequests - s0.ShardRequests
		if r.Stats().Retries != s0.Retries || frames == 0 {
			t.Fatalf("%s: %d frames, retries %d → %d; want a clean run", what, frames, s0.Retries, r.Stats().Retries)
		}
		if got := writes.Load() - w0; got != frames {
			t.Fatalf("%s: %d Writes for %d request frames", what, got, frames)
		}
	}
	search := func(n, h int) func() error {
		qs := d.queries(rng, n, bits, 2)
		return func() error { _, err := r.SearchBatch(qs, h); return err }
	}
	check("search, batch 1", search(1, bits))
	check("search, batch 16", search(16, 3))
	// 2000 queries × 8 bytes to two shards: each frame is several times any
	// buffer a connection could be written through, and still one Write.
	check("search, batch 2000", search(2000, 3))
	if longest.Load() < 6000 {
		t.Fatalf("longest Write is %d bytes; the batch-2000 frames were split", longest.Load())
	}
	check("top-k", func() error { _, _, err := r.TopK(d.queries(rng, 4, bits, 2), 3); return err })

	seed := make(map[int]bitvec.Code)
	for id := 0; id < 200; id++ {
		seed[id] = bitvec.Rand(rng, bits)
	}
	md := buildMutableDeployment(t, rng, bits, 2, seed, 64)
	r = md.router
	writes, _ = countWrites(r)
	ids := make([]int, 16)
	codes := make([]bitvec.Code, 16)
	for i := range ids {
		ids[i], codes[i] = 1000+i, bitvec.Rand(rng, bits)
	}
	check("insert, batch 16", func() error { _, err := r.Insert(ids, codes); return err })
	check("insert, batch 1", func() error { _, err := r.Insert(ids[:1], codes[1:2]); return err })
	check("delete, batch 16", func() error { _, err := r.Delete(ids); return err })
	check("seal", func() error { _, err := r.Seal(false); return err })
}

// connNames reports the local address of every shard's pooled connection: a
// redial shows as a changed name.
func connNames(r *Router) []string {
	out := make([]string, len(r.shards))
	for m, sh := range r.shards {
		rp := sh.replicas[0]
		rp.mu.Lock()
		if rp.conn != nil {
			out[m] = rp.conn.LocalAddr().String()
		}
		rp.mu.Unlock()
	}
	return out
}

// TestPipelinedFirstAttemptUnderFailure: the first attempt of every leg is
// written and read on the calling goroutine; a leg whose first attempt fails
// — dropped connection, error frame, shed — on leg 0, leg 1 or both must
// still come back with the oracle's exact answer through the retry loop, with
// the counters counting what they always counted, the poisoned connection
// redialled and the healthy leg's connection left alone. A read timeout
// spends the whole request budget (one Timeout bounds both), so that request
// fails as it always has; the next one redials only the timed-out leg.
func TestPipelinedFirstAttemptUnderFailure(t *testing.T) {
	const bits, h = 32, 3
	type outcome struct {
		retries, sheds int64 // per faulted leg
		redial, fails  bool
	}
	kinds := []struct {
		name   string
		inject func(*server.FaultPlan) *server.FaultPlan
		want   outcome
	}{
		{"drop", func(p *server.FaultPlan) *server.FaultPlan { return p.DropRequest(0) }, outcome{retries: 1, redial: true}},
		{"error-frame", func(p *server.FaultPlan) *server.FaultPlan { return p.FailRequest(0) }, outcome{retries: 1}},
		{"shed", func(p *server.FaultPlan) *server.FaultPlan { return p.ShedRequest(0) }, outcome{sheds: 1}},
		{"read-timeout", func(p *server.FaultPlan) *server.FaultPlan { return p.DelayRequest(0, 600*time.Millisecond) }, outcome{redial: true, fails: true}},
	}
	for _, kind := range kinds {
		for _, faulted := range [][]int{{0}, {1}, {0, 1}} {
			t.Run(fmt.Sprintf("%s/legs%v", kind.name, faulted), func(t *testing.T) {
				t.Parallel()
				rng := rand.New(rand.NewSource(72))
				plans := map[int][]*server.FaultPlan{}
				for _, m := range faulted {
					plans[m] = []*server.FaultPlan{kind.inject(server.NewFaultPlan())}
				}
				d := buildDeployment(t, rng, 600, bits, 2, plans)
				r, err := Dial(d.addrs, Options{Backoff: time.Millisecond, Timeout: 200 * time.Millisecond})
				if err != nil {
					t.Fatal(err)
				}
				defer r.Close()
				before := connNames(r)
				queries := d.queries(rng, 12, bits, h)
				got, err := r.SearchBatch(queries, h)
				st := r.Stats()
				if st.ShardRequests != 2 {
					t.Fatalf("the batch reached %d shards, want both", st.ShardRequests)
				}
				n := int64(len(faulted))
				if st.Retries != n*kind.want.retries || st.Sheds != n*kind.want.sheds {
					t.Fatalf("retries %d sheds %d, want %d and %d", st.Retries, st.Sheds, n*kind.want.retries, n*kind.want.sheds)
				}
				if kind.want.fails {
					if err == nil || !strings.Contains(err.Error(), "retry budget exhausted") {
						t.Fatalf("err = %v, want the retry budget spent by the timed-out attempt", err)
					}
					if got, err = r.SearchBatch(queries, h); err != nil {
						t.Fatalf("request after the timeout: %v", err)
					}
				} else if err != nil {
					t.Fatal(err)
				}
				for i, q := range queries {
					want := append([]int(nil), d.oracle.Search(q, h)...)
					sort.Ints(want)
					if !equalInts(got[i], want) {
						t.Fatalf("query %d: router %v, oracle %v", i, got[i], want)
					}
				}
				after := connNames(r)
				for m := range after {
					hit := len(faulted) == 2 || faulted[0] == m
					if redialled := after[m] != before[m]; redialled != (hit && kind.want.redial) {
						t.Fatalf("shard %d (faulted %v): connection %s → %s", m, hit, before[m], after[m])
					}
				}
			})
		}
	}
}

// TestSharedRouterSlowShardNoDeadlock: eight goroutines on one Router, each
// holding leg 0's conversation while it waits for leg 1's, with shard 1
// stalling every third request. Locks are taken in shard order, so the run
// finishes, and every answer is still the oracle's.
func TestSharedRouterSlowShardNoDeadlock(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	const bits, h, workers, each = 32, 3, 8, 40
	slow := server.NewFaultPlan()
	for seq := int64(0); seq < workers*each; seq += 3 {
		slow.DelayRequest(seq, 2*time.Millisecond)
	}
	d := buildDeployment(t, rng, 600, bits, 2, map[int][]*server.FaultPlan{1: {slow}})
	r, err := Dial(d.addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	queries := d.queries(rng, workers*each*2, bits, h)
	want := make([][]int, len(queries))
	for i, q := range queries {
		want[i] = append([]int(nil), d.oracle.Search(q, h)...)
		sort.Ints(want[i])
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				at := (w*each + i) * 2
				got, err := r.SearchBatch(queries[at:at+2], h)
				if err != nil {
					t.Errorf("worker %d request %d: %v", w, i, err)
					return
				}
				for j := range got {
					if !equalInts(got[j], want[at+j]) {
						t.Errorf("worker %d request %d query %d: router %v, oracle %v", w, i, j, got[j], want[at+j])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if st := r.Stats(); st.Retries != 0 {
		t.Fatalf("a slow shard is not a failed one: %d retries", st.Retries)
	}
}
