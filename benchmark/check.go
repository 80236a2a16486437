package main

import (
	"fmt"
	"math"
)

// agreementCheck is the benchmark's own noise test: it runs every workload
// twice with the same code and seed and fails if any end-to-end metric of a
// workload differs between the two sets by more than the bound BENCHMARK.json
// gives it. A metric that fails here cannot gate a change.
func agreementCheck(e *env) error {
	var sets [2]map[string]map[string]float64
	for i := range sets {
		sets[i] = make(map[string]map[string]float64)
		for _, w := range workloads {
			out, err := runWorkload(e, w.Name, false)
			if err != nil {
				return fmt.Errorf("set %d, %s: %w", i+1, w.Name, err)
			}
			if out.failed > 0 {
				return fmt.Errorf("set %d, %s: %d of %d operations failed", i+1, w.Name, out.failed, out.attempted)
			}
			sets[i][w.Name] = out.metrics
		}
	}
	outside := 0
	fmt.Printf("%-8s %-20s %14s %14s %8s %6s\n", "workload", "metric", "set 1", "set 2", "differ", "bound")
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, b := sets[0][w.Name][d.Name], sets[1][w.Name][d.Name]
			diff := math.Abs(a-b) / a
			mark := ""
			if diff > d.Bound {
				mark = "  OUTSIDE"
				outside++
			}
			fmt.Printf("%-8s %-20s %14.4f %14.4f %7.1f%% %5.0f%%%s\n", w.Name, d.Name, a, b, 100*diff, 100*d.Bound, mark)
		}
	}
	if outside > 0 {
		return fmt.Errorf("%d metric x workload pairs differ by more than their bound", outside)
	}
	return nil
}
