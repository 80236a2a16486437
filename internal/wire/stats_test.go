package wire

import (
	"testing"
)

// fullStats has every field distinct and nonzero, so any mis-sliced or
// misordered encoding shows up as a wrong value, not a coincidental match.
func fullStats() StatsResp {
	return StatsResp{
		Requests:             101,
		Queries:              102,
		TopKQueries:          103,
		IDsReturned:          104,
		Errors:               105,
		FaultsInjected:       106,
		DistanceComputations: 107,
		NodesVisited:         108,
		LeavesChecked:        109,
		LatencyP50Ns:         201,
		LatencyP95Ns:         202,
		LatencyP99Ns:         203,
		LatencyMaxNs:         204,
		AdmissionP50Ns:       301,
	}
}

// TestStatsRespCorruptInputs: damaged payloads must fail softly with an
// error, never panic and never parse as a plausible snapshot.
func TestStatsRespCorruptInputs(t *testing.T) {
	full := fullStats().Append(nil)
	cases := []struct {
		name string
		b    []byte
	}{
		{"empty", nil},
		{"short base", full[:3]},
		{"truncated varint", append(append([]byte(nil), full[:9]...), 0x80)},
		{"trailing garbage varint", append(append([]byte(nil), full...), 0x80)},
		{"one extra field", append(append([]byte(nil), full...), 7)},
		{"mid-latency cut", full[:10]},
		// Whole trailing field groups missing is not a shorter valid form:
		// 101..109 take one byte each, 201..204 two.
		{"nine counters only", full[:9]},
		{"counters and latency, no admission median", full[:17]},
		{"continuation-only", []byte{0x80, 0x80, 0x80}},
	}
	for _, tc := range cases {
		if _, err := ParseStatsResp(tc.b); err == nil {
			t.Fatalf("%s: corrupt payload parsed without error", tc.name)
		}
	}
}

// FuzzStatsResp throws arbitrary bytes at the parser: it must never panic,
// whatever it accepts must survive Append and parse back to the same value,
// and no proper prefix of an encoding may parse.
func FuzzStatsResp(f *testing.F) {
	f.Add(fullStats().Append(nil))
	f.Add(StatsResp{}.Append(nil))
	f.Add(fullStats().Append(nil)[:17])
	f.Add([]byte{0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ParseStatsResp(data)
		if err != nil {
			return
		}
		enc := m.Append(nil)
		if got, err := ParseStatsResp(enc); err != nil || got != m {
			t.Fatalf("re-parse: %+v, %v; want %+v", got, err, m)
		}
		for cut := range enc {
			if _, err := ParseStatsResp(enc[:cut]); err == nil {
				t.Fatalf("%d-byte prefix of a %d-byte encoding parsed", cut, len(enc))
			}
		}
	})
}
