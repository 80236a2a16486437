package client

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"haindex/internal/wire"
)

// fakeClock drives the router's retry loop deterministically: sleeps advance
// the clock instead of passing real time, and every sleep is recorded.
type fakeClock struct {
	mu     sync.Mutex
	t      time.Time
	sleeps []time.Duration
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) sleep(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
	c.sleeps = append(c.sleeps, d)
}

// newBackoffRouter builds a Router around a single one-replica shard whose
// address refuses connections, with the clock and jitter seams replaced —
// every attempt fails fast and the backoff schedule is exact.
func newBackoffRouter(t *testing.T, opts Options, clk *fakeClock, jitter func(int64) int64) *Router {
	t.Helper()
	// Grab a port the kernel just released: dialing it fails immediately.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	opts = opts.withDefaults()
	r := newRouter(opts, 1)
	r.shards[0] = &shard{part: 0, replicas: []*replica{{addr: addr, opts: opts}}}
	r.now, r.sleep, r.randInt63n = clk.now, clk.sleep, jitter
	return r
}

// statsOnce sends one stats request to shard 0 as a one-leg fan-out and
// returns the leg, answered or failed.
func statsOnce(r *Router, mode routeMode) leg {
	legs := []leg{{sh: r.shards[0], t: wire.MsgStats, want: wire.MsgStatsOK}}
	r.fanOut(legs, mode, nil)
	return legs[0]
}

// TestBackoffCapAndDoubling: with jitter pinned to its maximum, the sleep
// schedule must double from Backoff once per failed attempt and stop at the
// MaxAttempts cap exactly.
func TestBackoffCapAndDoubling(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	maxJitter := func(n int64) int64 { return n - 1 } // top of [0, n)
	r := newBackoffRouter(t, Options{
		MaxAttempts: 6,
		Backoff:     4 * time.Millisecond,
		DialTimeout: 100 * time.Millisecond,
		Timeout:     10 * time.Second,
	}, clk, maxJitter)

	if err := statsOnce(r, routeRotate).err; err == nil {
		t.Fatal("expected failure against a refusing address")
	}
	want := []time.Duration{
		4 * time.Millisecond,  // b=4ms, max jitter → full b
		8 * time.Millisecond,  // doubled
		16 * time.Millisecond, // and again
		32 * time.Millisecond,
		64 * time.Millisecond, // five sleeps between six attempts
	}
	if len(clk.sleeps) != len(want) {
		t.Fatalf("sleeps %v, want %v", clk.sleeps, want)
	}
	var total time.Duration
	for i, d := range clk.sleeps {
		if d != want[i] {
			t.Fatalf("sleep %d = %v, want %v (all: %v)", i, d, want[i], clk.sleeps)
		}
		total += d
	}
	st := r.Stats()
	if st.BackoffWait != total {
		t.Fatalf("BackoffWait = %v, want %v", st.BackoffWait, total)
	}
	if st.Retries != int64(len(want)) {
		t.Fatalf("Retries = %d, want %d", st.Retries, len(want))
	}
	// Every failed attempt must still land in the latency histograms.
	if n := r.Obs().Histogram("attempt_ns").Snapshot().Count; n != int64(len(want))+1 {
		t.Fatalf("attempt histogram has %d samples, want %d", n, len(want)+1)
	}
}

// TestBackoffJitterRange: sleeps must stay within the equal-jitter envelope
// [b/2, b] for any jitter draw.
func TestBackoffJitterRange(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	minJitter := func(n int64) int64 { return 0 } // bottom of the range
	r := newBackoffRouter(t, Options{
		MaxAttempts: 4,
		Backoff:     4 * time.Millisecond,
		DialTimeout: 100 * time.Millisecond,
		Timeout:     10 * time.Second,
	}, clk, minJitter)

	statsOnce(r, routeRotate)
	want := []time.Duration{
		2 * time.Millisecond, // b=4ms, zero jitter → b/2
		4 * time.Millisecond, // b=8ms → 4ms
		8 * time.Millisecond, // b=16ms → 8ms
	}
	if len(clk.sleeps) != len(want) {
		t.Fatalf("sleeps %v, want %v", clk.sleeps, want)
	}
	for i, d := range clk.sleeps {
		if d != want[i] {
			t.Fatalf("sleep %d = %v, want %v", i, d, want[i])
		}
	}
}

// TestBackoffBoundedByTimeout: the retry loop may not sleep past the request
// deadline — it must give up with a budget error instead, and the total
// sleep must stay under Timeout.
func TestBackoffBoundedByTimeout(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	maxJitter := func(n int64) int64 { return n - 1 }
	r := newBackoffRouter(t, Options{
		MaxAttempts: 50,
		Backoff:     4 * time.Millisecond,
		DialTimeout: 100 * time.Millisecond,
		Timeout:     20 * time.Millisecond,
	}, clk, maxJitter)

	start := clk.now()
	err := statsOnce(r, routeRotate).err
	if err == nil || !strings.Contains(err.Error(), "retry budget exhausted") {
		t.Fatalf("err = %v, want retry-budget error", err)
	}
	// Sleeps 4ms then 8ms land at t+12ms; the next 16ms draw would end at
	// t+28ms > deadline, so the loop must stop there.
	var total time.Duration
	for _, d := range clk.sleeps {
		total += d
	}
	if total >= r.opts.Timeout {
		t.Fatalf("slept %v total, must stay under Timeout %v", total, r.opts.Timeout)
	}
	if got := clk.now().Sub(start); got > r.opts.Timeout {
		t.Fatalf("retry loop consumed %v of fake wall time, Timeout is %v", got, r.opts.Timeout)
	}
	if len(clk.sleeps) != 2 {
		t.Fatalf("sleeps %v, want exactly 2 before the budget error", clk.sleeps)
	}
}
