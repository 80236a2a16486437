package haindex_test

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestServingImportFence: the paper-reproduction baselines stay out of the
// serving stack (no serving package or binary imports one, tests included),
// and the snapshot format stays ignorant of the MIH engine built over it.
func TestServingImportFence(t *testing.T) {
	banned := map[string]bool{}
	for _, b := range []string{"baseline", "radix", "knn", "btree", "zorder", "relop", "tanimoto"} {
		banned["haindex/internal/"+b] = true
	}
	for _, dir := range []string{
		"internal/core", "internal/wire", "internal/server", "internal/client", "internal/lsm",
		"internal/mih", "internal/planner", "internal/qcache", "internal/obs",
		"cmd/haserve", "cmd/haquery",
	} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: no Go files (%v)", dir, err)
		}
		for _, file := range files {
			f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				if banned[path] || (dir == "internal/wire" && strings.HasSuffix(path, "internal/mih")) {
					t.Errorf("%s imports %s", file, path)
				}
			}
		}
	}
}
