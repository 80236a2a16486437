package dataset

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"

	"haindex/internal/bitvec"
	"haindex/internal/vector"
)

// ReadCSV loads a dataset written by the hagen command: one comma-separated
// feature vector per line. All rows must share one dimensionality.
func ReadCSV(path string) ([]vector.Vec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []vector.Vec
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		fields := strings.Split(text, ",")
		v := make(vector.Vec, len(fields))
		for i, fld := range fields {
			x, err := strconv.ParseFloat(strings.TrimSpace(fld), 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: %s:%d: column %d: %w", path, line, i+1, err)
			}
			v[i] = x
		}
		if len(out) > 0 && len(v) != len(out[0]) {
			return nil, fmt.Errorf("dataset: %s:%d: %d columns, want %d", path, line, len(v), len(out[0]))
		}
		out = append(out, v)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("dataset: %s: empty dataset", path)
	}
	return out, nil
}

// ReadCodes loads the codes.txt that haidx shard writes beside its
// snapshots: one bit-string per dataset row, in row order, so the i-th code
// (blank lines are skipped) is tuple id i's. All codes must share one length.
func ReadCodes(path string) ([]bitvec.Code, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []bitvec.Code
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		c, err := bitvec.FromString(text)
		if err != nil {
			return nil, fmt.Errorf("dataset: %s:%d: %w", path, line, err)
		}
		if len(out) > 0 && c.Len() != out[0].Len() {
			return nil, fmt.Errorf("dataset: %s:%d: %d-bit code, want %d", path, line, c.Len(), out[0].Len())
		}
		out = append(out, c)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("dataset: %s: no codes", path)
	}
	return out, nil
}
