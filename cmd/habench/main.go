// Command habench regenerates the paper's evaluation tables and figures
// (Section 6) at a configurable scale and prints them as aligned text
// tables. See EXPERIMENTS.md for recorded outputs and the paper-vs-measured
// discussion.
//
// Usage:
//
//	habench -exp all            # every experiment below, default scale
//	habench -exp table4 -n 50000
//	habench -exp fig7 -quick
//
// The experiments are the rows of the runners table below (habench -h
// prints them); none writes a file. Serving numbers are not measured here:
// see benchmark/ and BENCHMARK.json.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"haindex/internal/bench"
)

// runners is every experiment -exp accepts, in the order "all" runs them.
var runners = []struct {
	name string
	run  func(bench.Scale) ([]bench.Table, error)
}{
	{"table4", bench.Table4},
	{"fig6", bench.Fig6},
	{"fig8", bench.Fig8},
	{"table5", bench.Table5},
	{"fig7", bench.Fig7},
	{"fig9", bench.Fig9},
	{"fig10", bench.Fig10},
	{"ablation", bench.Ablations},
	{"scaling", bench.Scaling},
	{"faults", bench.FaultSweep},
}

func main() {
	valid := ""
	for _, r := range runners {
		valid += r.name + "|"
	}
	valid += "all"
	var (
		exp    = flag.String("exp", "all", "experiment: "+valid)
		quick  = flag.Bool("quick", false, "use the small smoke-test scale")
		n      = flag.Int("n", 0, "override Hamming-select dataset size")
		knnN   = flag.Int("knn-n", 0, "override kNN dataset size (Table 5)")
		joinN  = flag.Int("join-base", 0, "override join base size per side")
		scales = flag.String("scales", "", "override join scale sweep, e.g. 5,10,15")
		nodes  = flag.Int("nodes", 0, "override simulated cluster size")
		seed   = flag.Int64("seed", 0, "override RNG seed")
	)
	flag.Parse()

	sc := bench.DefaultScale()
	if *quick {
		sc = bench.QuickScale()
	}
	if *n > 0 {
		sc.SelectN = *n
	}
	if *knnN > 0 {
		sc.KNNN = *knnN
	}
	if *joinN > 0 {
		sc.JoinBase = *joinN
	}
	if *nodes > 0 {
		sc.Nodes = *nodes
		sc.Partitions = *nodes
	}
	if *seed != 0 {
		sc.Seed = *seed
	}
	if *scales != "" {
		var ss []int
		for _, part := range strings.Split(*scales, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				fatalf("invalid -scales %q: %v", *scales, err)
			}
			ss = append(ss, v)
		}
		sc.JoinScales = ss
	}

	ran := false
	for _, r := range runners {
		if *exp != "all" && *exp != r.name {
			continue
		}
		ran = true
		tables, err := r.run(sc)
		if err != nil {
			fatalf("%s: %v", r.name, err)
		}
		for _, t := range tables {
			fmt.Println(t.Format())
		}
	}
	if !ran {
		fatalf("unknown experiment %q; want %s", *exp, valid)
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "habench: "+format+"\n", args...)
	os.Exit(1)
}
