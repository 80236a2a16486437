package bench

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"haindex/internal/core"
	"haindex/internal/dataset"
)

// The bench package's tests run every experiment at QuickScale and verify
// structure plus the paper's qualitative orderings where they are stable at
// tiny scale.

func TestTableFormat(t *testing.T) {
	tb := Table{
		Title:  "T",
		Note:   "note",
		Header: []string{"a", "longer"},
		Rows:   [][]string{{"xx", "y"}},
	}
	s := tb.Format()
	for _, want := range []string{"## T", "note", "a ", "longer", "xx"} {
		if !strings.Contains(s, want) {
			t.Errorf("format missing %q:\n%s", want, s)
		}
	}
}

func TestNewEnv(t *testing.T) {
	env, err := NewEnv(profileForTest(), 500, 32, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(env.Codes) != 500 || len(env.Queries) != 10 {
		t.Fatalf("codes=%d queries=%d", len(env.Codes), len(env.Queries))
	}
	if env.Codes[0].Len() != 32 {
		t.Fatalf("bits=%d", env.Codes[0].Len())
	}
}

func TestTable4Quick(t *testing.T) {
	sc := QuickScale()
	tables, err := Table4(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 3 {
		t.Fatalf("tables=%d want 3 (one per dataset)", len(tables))
	}
	for _, tb := range tables {
		if len(tb.Rows) != 7 {
			t.Fatalf("%s: %d rows want 7 systems", tb.Title, len(tb.Rows))
		}
		for _, row := range []string{"Nested-Loops", "DHA-Index"} {
			cellMs(t, tb, row, 1) // the query times parse
		}
	}
	// The ordering at the extremes, on counted work rather than on the
	// clock, which at this scale is scheduling noise (under -race DHA once
	// read 472µs against Nested-Loops' 153µs): over the same env and h, DHA
	// computes fewer distances a query than Nested-Loops, which computes n.
	for _, p := range dataset.Profiles() {
		env, err := NewEnv(p, sc.SelectN, sc.Bits, sc.Queries, sc.Seed)
		if err != nil {
			t.Fatal(err)
		}
		dha := core.NewPointerSearcher(core.BuildDynamic(env.Codes, nil, core.Options{}))
		dist := 0
		for _, q := range env.Queries {
			dha.Search(q, sc.Threshold)
			dist += dha.Stats.DistanceComputations
		}
		if per := dist / len(env.Queries); per >= len(env.Codes) {
			t.Errorf("%s: DHA computes %d distances a query, Nested-Loops %d", p.Name, per, len(env.Codes))
		}
	}
}

func TestFig6Quick(t *testing.T) {
	sc := QuickScale()
	sc.SelectN = 1000
	sc.Queries = 5
	tables, err := Fig6(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 3 {
		t.Fatalf("tables=%d", len(tables))
	}
	for _, tb := range tables {
		if len(tb.Header) != 7 || len(tb.Rows) != 7 {
			t.Fatalf("%s: header=%d rows=%d", tb.Title, len(tb.Header), len(tb.Rows))
		}
	}
}

func TestFig8Quick(t *testing.T) {
	sc := QuickScale()
	sc.SelectN = 1000
	sc.Queries = 5
	tables, err := Fig8(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("tables=%d", len(tables))
	}
	if len(tables[0].Rows) != 8 {
		t.Fatalf("window rows=%d", len(tables[0].Rows))
	}
}

func TestTable5Quick(t *testing.T) {
	sc := QuickScale()
	sc.KNNN = 800
	sc.Queries = 5
	tables, err := Table5(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 3 {
		t.Fatalf("tables=%d", len(tables))
	}
	for _, tb := range tables {
		if len(tb.Rows) != 6 {
			t.Fatalf("%s: rows=%d want 6", tb.Title, len(tb.Rows))
		}
	}
}

func TestFig7And9Quick(t *testing.T) {
	sc := QuickScale()
	tables7, err := Fig7(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables7) != 3 {
		t.Fatalf("fig7 tables=%d", len(tables7))
	}
	for _, tb := range tables7 {
		if len(tb.Rows) != 4 {
			t.Fatalf("%s: rows=%d", tb.Title, len(tb.Rows))
		}
		// PGBJ must shuffle the most at every scale (Figure 7's headline).
		pg := rowOf(t, tb, "PGBJ")
		ha := rowOf(t, tb, "MRHA-INDEX-B")
		for c := 1; c < len(pg); c++ {
			pgv, _ := strconv.ParseFloat(pg[c], 64)
			hav, _ := strconv.ParseFloat(ha[c], 64)
			if pgv <= hav {
				t.Errorf("%s col %d: PGBJ %v should exceed MRHA-B %v", tb.Title, c, pgv, hav)
			}
		}
	}
	tables9, err := Fig9(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables9) != 3 {
		t.Fatalf("fig9 tables=%d", len(tables9))
	}
}

func TestFig10Quick(t *testing.T) {
	sc := QuickScale()
	tables, err := Fig10(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("tables=%d", len(tables))
	}
	for _, row := range tables[1].Rows {
		p, _ := strconv.ParseFloat(row[1], 64)
		r, _ := strconv.ParseFloat(row[2], 64)
		if p < 0 || p > 1 || r < 0 || r > 1 {
			t.Fatalf("precision/recall out of range: %v", row)
		}
	}
}

func TestAblationsQuick(t *testing.T) {
	sc := QuickScale()
	tables, err := Ablations(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("tables=%d", len(tables))
	}
	if len(tables[0].Rows) != 4 {
		t.Fatalf("variant rows=%d", len(tables[0].Rows))
	}
}

// ---- helpers ----

func profileForTest() dataset.Profile {
	return dataset.Profile{Name: "test", Dim: 16, Clusters: 4, Skew: 0.8, Spread: 0.05}
}

func rowOf(t *testing.T, tb Table, name string) []string {
	t.Helper()
	for _, r := range tb.Rows {
		if r[0] == name {
			return r
		}
	}
	t.Fatalf("%s: no row %q", tb.Title, name)
	return nil
}

func cellMs(t *testing.T, tb Table, row string, col int) time.Duration {
	t.Helper()
	r := rowOf(t, tb, row)
	v, err := strconv.ParseFloat(r[col], 64)
	if err != nil {
		t.Fatalf("cell %s[%d] = %q: %v", row, col, r[col], err)
	}
	return time.Duration(v * float64(time.Millisecond))
}

func TestScalingQuick(t *testing.T) {
	sc := QuickScale()
	sc.SelectN = 500
	sc.Queries = 5
	tables, err := Scaling(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || len(tables[0].Rows) != 3 {
		t.Fatalf("tables=%d rows=%d", len(tables), len(tables[0].Rows))
	}
}

func TestFaultSweepQuick(t *testing.T) {
	sc := QuickScale()
	tables, err := FaultSweep(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("tables=%d", len(tables))
	}
	for _, tb := range tables {
		for _, row := range tb.Rows {
			if row[len(row)-1] != "yes" {
				t.Fatalf("%s: inexact row under faults: %v", tb.Title, row)
			}
		}
	}
	for _, row := range tables[0].Rows[1:] {
		if row[4] == "0" {
			t.Fatalf("faulted row recorded no retries: %v", row)
		}
	}
}
