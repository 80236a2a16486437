package client

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"haindex/internal/wire"
)

// startSheddingServer runs a minimal in-test shard server that handshakes
// and answers every subsequent request with MsgShed after delay —
// a shard that is permanently saturated. It returns its address and a counter
// of accepted connections.
func startSheddingServer(t *testing.T, delay time.Duration) (string, *atomic.Int32) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var dials atomic.Int32
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			dials.Add(1)
			go func(conn net.Conn) {
				defer conn.Close()
				br := bufio.NewReader(conn)
				typ, _, err := wire.ReadFrame(br)
				if err != nil || typ != wire.MsgHello {
					return
				}
				ok := wire.HelloOK{Version: wire.Version, SnapshotMeta: wire.SnapshotMeta{Length: 32, Part: 0, Parts: 1}}
				if err := wire.WriteFrame(conn, wire.MsgHelloOK, ok.Append(nil)); err != nil {
					return
				}
				for {
					if _, _, err := wire.ReadFrame(br); err != nil {
						return
					}
					if delay > 0 {
						time.Sleep(delay)
					}
					shed := wire.ShedResp{WaitNs: int64(time.Millisecond)}
					if err := wire.WriteFrame(conn, wire.MsgShed, shed.Append(nil)); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String(), &dials
}

// startStatsServer runs a minimal in-test shard server that answers the
// handshake with hello and every subsequent request with MsgStatsOK — a
// healthy, unloaded sibling. It returns its address and a counter of requests
// served.
func startStatsServer(t *testing.T, hello wire.HelloOK) (string, *atomic.Int32) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var served atomic.Int32
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				br := bufio.NewReader(conn)
				typ, _, err := wire.ReadFrame(br)
				if err != nil || typ != wire.MsgHello {
					return
				}
				if err := wire.WriteFrame(conn, wire.MsgHelloOK, hello.Append(nil)); err != nil {
					return
				}
				for {
					if _, _, err := wire.ReadFrame(br); err != nil {
						return
					}
					served.Add(1)
					st := wire.StatsResp{Requests: int64(served.Load())}
					if err := wire.WriteFrame(conn, wire.MsgStatsOK, st.Append(nil)); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String(), &served
}

// healthyHello is a one-partition deployment's handshake at this build's
// protocol version.
var healthyHello = wire.HelloOK{Version: wire.Version, SnapshotMeta: wire.SnapshotMeta{Length: 32, Part: 0, Parts: 1}}

// TestDialNamesVersionMismatch: a shard answering the handshake at another
// protocol version is refused with both numbers in the error.
func TestDialNamesVersionMismatch(t *testing.T) {
	hello := healthyHello
	hello.Version--
	addr, _ := startStatsServer(t, hello)
	_, err := Dial([][]string{{addr}}, Options{})
	want := fmt.Sprintf("speaks protocol version %d, this client speaks %d", wire.Version-1, wire.Version)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Dial error %v, want it to say %q", err, want)
	}
}

// TestDialRejectsPartitionPastParts: a shard claiming partition 1 of a
// one-partition deployment — misconfigured or hostile — is an error from
// Dial, not an index past the end of the router's shard table.
func TestDialRejectsPartitionPastParts(t *testing.T) {
	hello := healthyHello
	hello.Part = 1
	addr, _ := startStatsServer(t, hello)
	r, err := Dial([][]string{{addr}}, Options{MaxAttempts: 1})
	if err == nil {
		r.Close()
		t.Fatal("Dial accepted partition 1 of 1")
	}
	if !strings.Contains(err.Error(), "partition 1 of 1 out of range") {
		t.Fatalf("Dial error %v does not name the partition", err)
	}
}

// shedCase is one fake-clock run of the router's overload etiquette: a
// MsgShed is counted, never a retry; the request sleeps one jittered Backoff
// and asks the next replica in rotation once; a second shed, or a deadline
// with no room for the backoff, ends it with ErrShed.
type shedCase struct {
	name      string
	replicas  func(t *testing.T) []string
	timeout   time.Duration
	sleeps    []time.Duration
	sheds     int64
	wantShed  bool
	siblingOK bool
}

// shedOpts is the router configuration every shedCase runs under, bar the
// case's own timeout.
var shedOpts = Options{
	MaxAttempts: 3,
	Backoff:     4 * time.Millisecond,
	DialTimeout: time.Second,
	Timeout:     50 * time.Millisecond,
}

func runShedCases(t *testing.T, cases []shedCase) {
	maxJitter := func(n int64) int64 { return n - 1 } // top of [0, n): d = Backoff
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk := &fakeClock{t: time.Unix(1000, 0)}
			o := shedOpts
			o.Timeout = tc.timeout
			r := newBackoffRouter(t, o, clk, maxJitter)
			r.shards[0].replicas = nil
			for _, addr := range tc.replicas(t) {
				r.shards[0].replicas = append(r.shards[0].replicas, &replica{addr: addr, opts: r.opts})
			}

			lg := statsOnce(r, routePrimary)
			respType, err := lg.respType, lg.err
			if tc.wantShed != errors.Is(err, ErrShed) {
				t.Fatalf("err = %v, want ErrShed %v", err, tc.wantShed)
			}
			if tc.siblingOK && (err != nil || respType != wire.MsgStatsOK) {
				t.Fatalf("answer %s, err %v: the sibling should have answered", respType, err)
			}
			if !slices.Equal(clk.sleeps, tc.sleeps) {
				t.Fatalf("sleeps %v, want %v", clk.sleeps, tc.sleeps)
			}
			st := r.Stats()
			if st.Sheds != tc.sheds || st.Retries != 0 {
				t.Fatalf("Sheds = %d, Retries = %d, want %d and 0: a shed is no failed attempt", st.Sheds, st.Retries, tc.sheds)
			}
			if r.Obs().Counter("sheds").Value() != st.Sheds {
				t.Fatal("sheds counter not mirrored into the registry")
			}
		})
	}
}

// TestShedBackoffBoundedByDeadline: a shed backs off once and no further. A
// saturated pair sleeps one Backoff, sheds again and ends in ErrShed; a
// deadline with no room for the backoff ends in ErrShed without sleeping,
// even with a healthy sibling waiting.
func TestShedBackoffBoundedByDeadline(t *testing.T) {
	runShedCases(t, []shedCase{
		{"saturated pair", func(t *testing.T) []string {
			a, _ := startSheddingServer(t, 0)
			b, _ := startSheddingServer(t, 0)
			return []string{a, b}
		}, shedOpts.Timeout, []time.Duration{shedOpts.Backoff}, 2, true, false},
		{"deadline shorter than the backoff", func(t *testing.T) []string {
			a, _ := startSheddingServer(t, 0)
			b, _ := startStatsServer(t, healthyHello)
			return []string{a, b}
		}, shedOpts.Backoff / 2, nil, 1, true, false},
	})
}

// TestShedSteersToLeastLoadedReplica: after the shed backoff the request
// moves off the replica that just asked for less. The only load signal the
// router holds is that shed, so the least-loaded replica it knows of is the
// next in rotation — here the healthy sibling, which must answer it.
func TestShedSteersToLeastLoadedReplica(t *testing.T) {
	var siblingServed *atomic.Int32
	runShedCases(t, []shedCase{
		{"shed replica, healthy sibling", func(t *testing.T) []string {
			a, _ := startSheddingServer(t, 0)
			b, served := startStatsServer(t, healthyHello)
			siblingServed = served
			return []string{a, b}
		}, shedOpts.Timeout, []time.Duration{shedOpts.Backoff}, 1, false, true},
	})
	if n := siblingServed.Load(); n != 1 {
		t.Fatalf("sibling served %d requests, want the one after the shed", n)
	}
}
