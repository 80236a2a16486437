package dataset

import (
	"os"
	"path/filepath"
	"testing"
)

func TestReadCSV(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "d.csv")
	if err := os.WriteFile(path, []byte("1,2,3\n4,5,6\n\n7,8,9\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	vs, err := ReadCSV(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 3 || vs[1][2] != 6 {
		t.Fatalf("vs = %v", vs)
	}
}

func TestReadCSVErrors(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.csv")
	os.WriteFile(bad, []byte("1,x,3\n"), 0o644)
	if _, err := ReadCSV(bad); err == nil {
		t.Error("expected parse error")
	}
	ragged := filepath.Join(dir, "ragged.csv")
	os.WriteFile(ragged, []byte("1,2\n1,2,3\n"), 0o644)
	if _, err := ReadCSV(ragged); err == nil {
		t.Error("expected ragged-row error")
	}
	empty := filepath.Join(dir, "empty.csv")
	os.WriteFile(empty, nil, 0o644)
	if _, err := ReadCSV(empty); err == nil {
		t.Error("expected empty error")
	}
	if _, err := ReadCSV(filepath.Join(dir, "missing.csv")); err == nil {
		t.Error("expected missing-file error")
	}
}

func TestReadCodes(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "codes.txt")
	if err := os.WriteFile(path, []byte("0101\n\n1100\n 0011 \n"), 0o644); err != nil {
		t.Fatal(err)
	}
	codes, err := ReadCodes(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(codes) != 3 || codes[1].String() != "1100" || codes[2].String() != "0011" {
		t.Fatalf("codes = %v", codes)
	}
	for name, body := range map[string]string{
		"bad.txt":    "0101\n01x1\n",
		"ragged.txt": "0101\n010\n",
		"empty.txt":  "\n\n",
	} {
		p := filepath.Join(dir, name)
		os.WriteFile(p, []byte(body), 0o644)
		if _, err := ReadCodes(p); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
	if _, err := ReadCodes(filepath.Join(dir, "missing.txt")); err == nil {
		t.Error("expected missing-file error")
	}
}
