package mrjoin

import (
	"fmt"

	"haindex/internal/hash"
	"haindex/internal/mapreduce"
	"haindex/internal/vector"
)

// HammingJoinBLarge is Option B's large-R path (Section 5.3): when table R
// is too large for the post-processing id recovery to run in one memory,
// the (qualifying code, sid) pairs produced by the leafless join are joined
// back to R's (code, rid) tuples with one more MapReduce job — the standard
// repartition hash-join of Blanas et al. [23]: both sides shuffle keyed on
// the binary code, and each reducer pairs the R ids with the S ids of its
// key group.
func HammingJoinBLarge(r, s []vector.Vec, g *GlobalIndex, pre *Preprocessed, opt Options) (*JoinResult, error) {
	opt = opt.withDefaults()
	pin, err := jobEngine(pre, opt)
	if err != nil {
		return nil, err
	}
	// Stage 1: HammingJoinB's join job — emit (code, sid).
	stage1, metrics, err := leaflessJoin("mrha-join-b-stage1", s, g, pre, pin, opt)
	if err != nil {
		return nil, fmt.Errorf("mrjoin: join job (option B large): %w", err)
	}

	// Stage 2: repartition hash-join on the code key. The R side streams
	// its (code, rid) records; the stage-1 output streams its (code, sid)
	// records; reducers cross the two lists per code.
	const (
		sideR = 0
		sideS = 1
	)
	rCodes := hash.HashAll(pre.Hash, r)
	input := make([]mapreduce.KV, 0, len(r)+len(stage1))
	for rid, code := range rCodes {
		input = append(input, mapreduce.KV{
			Key:   code.AppendBytes(nil),
			Value: append([]byte{sideR}, encodeUint32(uint32(rid))...),
		})
	}
	for _, kv := range stage1 {
		input = append(input, mapreduce.KV{
			Key:   kv.Key,
			Value: append([]byte{sideS}, kv.Value...),
		})
	}
	identity := func(in mapreduce.KV, emit func(mapreduce.KV)) error {
		emit(in)
		return nil
	}
	crossSides := func(key []byte, values [][]byte, emit func(mapreduce.KV)) error {
		var rids, sids []uint32
		for _, v := range values {
			if len(v) != 5 {
				return fmt.Errorf("mrjoin: malformed hash-join record (%d bytes)", len(v))
			}
			id := uint32(v[1])<<24 | uint32(v[2])<<16 | uint32(v[3])<<8 | uint32(v[4])
			if v[0] == sideR {
				rids = append(rids, id)
			} else {
				sids = append(sids, id)
			}
		}
		for _, rid := range rids {
			for _, sid := range sids {
				emit(mapreduce.KV{Key: encodeUint32(rid), Value: encodeUint32(sid)})
			}
		}
		return nil
	}
	joinCfg := opt.job("mrha-join-b-hashjoin", identity, crossSides)
	joinCfg.Partition = nil // keyed by code, not partition id: the runtime's hash partitioning
	out, m2, err := mapreduce.Run(joinCfg, input)
	if err != nil {
		return nil, fmt.Errorf("mrjoin: option B hash-join job: %w", err)
	}
	metrics.Add(m2)
	return &JoinResult{Pairs: decodePairs(out), Metrics: metrics, Engine: engineRan(g, pin, opt.Threshold)}, nil
}
