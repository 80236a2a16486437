package obs

import (
	"encoding/json"
	"sync"
	"testing"
)

// TestRegistryConcurrentWrites hammers one registry from many goroutines —
// get-or-create races, lock-free recording, and snapshots taken mid-flight —
// and then checks the final totals. Run under -race this is the package's
// thread-safety proof.
func TestRegistryConcurrentWrites(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Every goroutine resolves the same names — the get-or-create race.
			c := r.Counter("requests")
			g := r.Gauge("inflight")
			h := r.Histogram("latency_ns")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Record(int64(i))
				g.Add(-1)
				if i%100 == 0 {
					_ = r.Snapshot() // snapshots race records; must not trip -race
				}
			}
		}(w)
	}
	wg.Wait()
	s := r.Snapshot()
	if got := s.Counters["requests"]; got != workers*perWorker {
		t.Fatalf("counter %d, want %d", got, workers*perWorker)
	}
	if got := s.Gauges["inflight"]; got != 0 {
		t.Fatalf("gauge %d, want 0", got)
	}
	hs := s.Histograms["latency_ns"]
	if hs.Count != workers*perWorker {
		t.Fatalf("histogram count %d, want %d", hs.Count, workers*perWorker)
	}
	if hs.Max != perWorker-1 {
		t.Fatalf("histogram max %d", hs.Max)
	}
}

func TestRegistrySnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(3)
	r.Gauge("b").Set(-4)
	r.Histogram("c").Record(123456)
	var round RegistrySnapshot
	if err := json.Unmarshal(r.Snapshot().JSON(), &round); err != nil {
		t.Fatal(err)
	}
	if round.Counters["a"] != 3 || round.Gauges["b"] != -4 {
		t.Fatalf("round-tripped snapshot: %+v", round)
	}
	if round.Histograms["c"].Count != 1 || round.Histograms["c"].Max != 123456 {
		t.Fatalf("round-tripped histogram: %+v", round.Histograms["c"])
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 1 || len(snap.Gauges) != 1 || len(snap.Histograms) != 1 {
		t.Fatalf("snapshot names: %+v", snap)
	}
}
