package haindex_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestServingImportFence holds the fence from both sides. The
// paper-reproduction baselines stay out of the serving stack (no serving
// package or binary imports one, tests included) and the snapshot format
// stays ignorant of the MIH engine built over it; the reproduction benches
// (internal/bench, cmd/habench) import nothing of the serving stack, whose
// numbers come from benchmark/ alone. The BENCH_*.json records at the repo
// root are exactly the file names internal/bench's non-test source spells out
// (today QueryBenchFile), so a record whose experiment was deleted cannot
// linger as if it were still measured. The pointer index with its
// H-Insert/H-Delete, insert buffer and pointer merge (core.Merge) belongs to
// the library API (haindex.MergeIndexes) and the reproduction benches: the
// LSM tier keeps a scanned slab and frozen arenas, compacts by rebuilding from
// leaf slabs, and never sees a pointer index, so no non-test source under
// internal/lsm may mention core.Merge, DynamicIndex or a .Flush( call. Nor does
// any serving or offline build go through the pointer form: the stream
// writer, the LSM tier, the planner and the MapReduce pipeline build arenas
// with core.BuildFrozen, so internal/lsm, internal/planner and
// internal/core/arena_stream.go may not mention BuildDynamic( or
// FreezeChunked either, and internal/mrjoin — whose global index is the forest
// of its reducers' arenas — none of BuildDynamic(, core.Merge, core.Freeze(
// or DynamicIndex. Every serving index is a frozen arena: the serving and
// offline packages and haserve name neither pointer form (DynamicIndex,
// StaticIndex, BuildDynamic(, BuildStatic() nor a freeze on entry
// (core.Compiled). The planner prices engines by the work they count, not by
// a stopwatch, so its non-test source may not import "time": the same engines
// and seed must give the same plan on any machine. The offline pipeline
// reports its costs through mapreduce.Metrics alone, so the non-test source
// of internal/mapreduce and internal/mrjoin may not import internal/obs: a
// second channel for the same numbers does not come back without a caller.
// HA, MIH and the scan are each a core.Engine, so nothing adapts an engine
// any more: no Go file under internal/ outside internal/core, under cmd/ or
// at the root, tests included, may mention core.Index, the adapter type or
// its constructor (the shim pattern below spells all three). The alias and the identity constructor
// left in internal/core serve only the benchmark harness, so benchmark/ is
// not scanned: ROADMAP item 2(a) rewrites it and deletes them together. This
// file names the alias to ban it and is skipped. A metric registry is owned
// by the component that counts, never passed in: in the non-test source
// under internal/, no Options struct has an *obs.Registry field, and only
// internal/lsm (the shard's) and internal/client (the router's) call
// obs.NewRegistry.
func TestServingImportFence(t *testing.T) {
	internal := func(names ...string) map[string]bool {
		m := map[string]bool{}
		for _, n := range names {
			m["haindex/internal/"+n] = true
		}
		return m
	}
	baselines := internal("baseline", "radix", "knn", "btree", "zorder", "relop", "tanimoto")
	serving := internal("server", "client", "wire", "lsm", "planner", "mih", "obs")
	fences := []struct {
		banned   map[string]bool
		dirs     []string
		skipTest bool // the fence holds non-test files only
	}{
		{baselines, []string{
			"internal/core", "internal/wire", "internal/server", "internal/client", "internal/lsm",
			"internal/mih", "internal/planner", "internal/obs",
			"cmd/haserve", "cmd/haquery",
		}, false},
		{serving, []string{"internal/bench", "cmd/habench"}, false},
		{map[string]bool{"time": true}, []string{"internal/planner"}, true},
		{internal("obs"), []string{"internal/mapreduce", "internal/mrjoin"}, true},
	}
	for _, fence := range fences {
		for _, dir := range fence.dirs {
			files, err := filepath.Glob(filepath.Join(dir, "*.go"))
			if err != nil || len(files) == 0 {
				t.Fatalf("%s: no Go files (%v)", dir, err)
			}
			for _, file := range files {
				if fence.skipTest && strings.HasSuffix(file, "_test.go") {
					continue
				}
				f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
				if err != nil {
					t.Fatal(err)
				}
				for _, imp := range f.Imports {
					path, _ := strconv.Unquote(imp.Path.Value)
					if fence.banned[path] || (dir == "internal/wire" && strings.HasSuffix(path, "internal/mih")) {
						t.Errorf("%s imports %s", file, path)
					}
				}
			}
		}
	}

	noPointerBuild := []string{"BuildDynamic(", "FreezeChunked"}
	noPointerForm := []string{"DynamicIndex", "StaticIndex", "BuildDynamic(", "BuildStatic(", "core.Compiled"}
	wordFences := []struct {
		glob   string
		banned []string
	}{
		{"internal/server/*.go", noPointerForm},
		{"internal/lsm/*.go", noPointerForm},
		{"internal/planner/*.go", noPointerForm},
		{"internal/client/*.go", noPointerForm},
		{"internal/wire/*.go", noPointerForm},
		{"internal/mrjoin/*.go", noPointerForm},
		{"cmd/haserve/*.go", noPointerForm},
		{"internal/lsm/*.go", append([]string{"core.Merge", "DynamicIndex", ".Flush("}, noPointerBuild...)},
		{"internal/planner/*.go", noPointerBuild},
		{"internal/core/arena_stream.go", noPointerBuild},
		{"internal/mrjoin/*.go", []string{"BuildDynamic(", "core.Merge", "core.Freeze(", "DynamicIndex"}},
	}
	for _, fence := range wordFences {
		files, err := filepath.Glob(fence.glob)
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: no Go files (%v)", fence.glob, err)
		}
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			for _, banned := range fence.banned {
				if strings.Contains(string(src), banned) {
					t.Errorf("%s mentions %s", file, banned)
				}
			}
		}
	}

	shim := regexp.MustCompile(`(As|Engine)Index\b|core\.Index\b`)
	for _, glob := range []string{"internal/*/*.go", "cmd/*/*.go", "*.go"} {
		files, err := filepath.Glob(glob)
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: no Go files (%v)", glob, err)
		}
		for _, file := range files {
			if strings.HasPrefix(file, "internal/core/") || file == "fence_test.go" {
				continue
			}
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			if m := shim.Find(src); m != nil {
				t.Errorf("%s mentions %s", file, m)
			}
		}
	}

	owners := map[string]bool{"internal/lsm": true, "internal/client": true}
	sources, err := filepath.Glob("internal/*/*.go")
	if err != nil || len(sources) == 0 {
		t.Fatalf("internal/: no Go files (%v)", err)
	}
	for _, file := range sources {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		isObs := func(e ast.Expr, name string) bool {
			sel, ok := e.(*ast.SelectorExpr)
			if !ok {
				return false
			}
			pkg, ok := sel.X.(*ast.Ident)
			return ok && pkg.Name == "obs" && sel.Sel.Name == name
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				st, ok := n.Type.(*ast.StructType)
				if !ok || n.Name.Name != "Options" {
					return true
				}
				for _, field := range st.Fields.List {
					if star, ok := field.Type.(*ast.StarExpr); ok && isObs(star.X, "Registry") {
						t.Errorf("%s: Options takes a registry; its component should own one", file)
					}
				}
			case *ast.CallExpr:
				if isObs(n.Fun, "NewRegistry") && !owners[filepath.Dir(file)] {
					t.Errorf("%s calls obs.NewRegistry; only the shard (internal/lsm) and the router (internal/client) own one", file)
				}
			}
			return true
		})
	}

	record := regexp.MustCompile(`^BENCH_\w+\.json$`)
	declared := map[string]bool{}
	files, err := filepath.Glob("internal/bench/*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil && record.MatchString(s) {
					declared[s] = true
				}
			}
			return true
		})
	}
	onDisk, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range onDisk {
		if !declared[name] {
			t.Errorf("%s has no writer in internal/bench", name)
		}
		delete(declared, name)
	}
	for name := range declared {
		t.Errorf("internal/bench writes %s, but no such record is at the repo root", name)
	}
}
