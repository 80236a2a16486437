package mapreduce

import (
	"strconv"
	"strings"
	"testing"
)

// TestPhaseWallsAndObs: a job must split its wall time into the three
// phases and report one time per task in its Metrics, which is where every
// reader of the job's costs gets them.
func TestPhaseWallsAndObs(t *testing.T) {
	cfg := Config{
		Name:    "obs",
		Mappers: 3, Reducers: 2, Nodes: 2,
		Map: func(in KV, emit func(KV)) error {
			for _, w := range strings.Fields(string(in.Value)) {
				emit(kv(w, "1"))
			}
			return nil
		},
		Reduce: func(key []byte, values [][]byte, emit func(KV)) error {
			emit(KV{Key: key, Value: []byte(strconv.Itoa(len(values)))})
			return nil
		},
	}
	docs := []KV{kv("d1", "a b c"), kv("d2", "b c d"), kv("d3", "c d e")}
	_, m, err := Run(cfg, docs)
	if err != nil {
		t.Fatal(err)
	}
	if m.MapWall <= 0 || m.ShuffleWall <= 0 || m.ReduceWall <= 0 {
		t.Fatalf("phase walls not set: map=%v shuffle=%v reduce=%v", m.MapWall, m.ShuffleWall, m.ReduceWall)
	}
	if sum := m.MapWall + m.ShuffleWall + m.ReduceWall; sum > m.Wall+m.Wall/2 {
		t.Fatalf("phase walls %v far exceed job wall %v", sum, m.Wall)
	}
	if len(m.MapTaskTimes) != 3 || len(m.ReduceTaskTimes) != 2 || m.Attempts != int64(m.Tasks()) {
		t.Fatalf("task times %d/%d, attempts %d", len(m.MapTaskTimes), len(m.ReduceTaskTimes), m.Attempts)
	}

	// Metrics.Add carries the phase walls and task times along.
	var total Metrics
	total.Add(m)
	_, m2, err := Run(cfg, docs)
	if err != nil {
		t.Fatal(err)
	}
	total.Add(m2)
	if total.MapWall != m.MapWall+m2.MapWall || total.ReduceWall != m.ReduceWall+m2.ReduceWall {
		t.Fatalf("Metrics.Add dropped phase walls: %+v", total)
	}
	if len(total.MapTaskTimes) != 6 || total.Attempts != m.Attempts+m2.Attempts {
		t.Fatalf("Metrics.Add dropped task times or attempts: %+v", total)
	}
}
