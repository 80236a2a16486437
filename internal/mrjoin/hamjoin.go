package mrjoin

import (
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"haindex/internal/baseline"
	"haindex/internal/bitvec"
	"haindex/internal/core"
	"haindex/internal/hash"
	"haindex/internal/mapreduce"
	"haindex/internal/planner"
	"haindex/internal/vector"
)

// JoinResult is the output of one distributed Hamming-join.
type JoinResult struct {
	Pairs    []Pair
	Metrics  mapreduce.Metrics
	PostJoin time.Duration // Option B's id-recovery join
	// Engine is the engine the reducers searched R's forest with — "ha",
	// "mih" or "scan" — pinned by Options.Engine or planned. PMHJoin, whose
	// reducers probe a MultiHashTable, leaves it empty.
	Engine string
}

// decodePairs converts the reduce output into result pairs.
func decodePairs(out []mapreduce.KV) []Pair {
	pairs := make([]Pair, len(out))
	for i, kv := range out {
		pairs[i] = Pair{RID: decodeID(kv.Key), SID: decodeID(kv.Value)}
	}
	return pairs
}

// jobEngine checks a join or select job's options and returns its engine
// pin (planner.UsePlan for none).
func jobEngine(pre *Preprocessed, opt Options) (planner.Strategy, error) {
	if err := checkBits(pre, opt); err != nil {
		return 0, err
	}
	return opt.strategy()
}

// engineRan names the engine the job's reducers searched g with under pin.
func engineRan(g *GlobalIndex, pin planner.Strategy, h int) string {
	if _, s, err := g.searchIndex(pin, h); err == nil {
		return s.String()
	}
	return ""
}

// matchReducer is the reduce side of Option A and of the select job: batch
// the key group's queries through the engine pin names over the shared
// read-only forest — or through the forest's plan at the threshold — with
// core.SearchBatch, and emit one (match id, query id) record per result — or
// (query id, match id) when queryFirst — in record order, out of one slab.
func matchReducer(g *GlobalIndex, pin planner.Strategy, opt Options, queryFirst bool) mapreduce.ReduceFunc {
	return func(key []byte, values [][]byte, emit func(mapreduce.KV)) error {
		idx, _, err := g.searchIndex(pin, opt.Threshold)
		if err != nil {
			return err
		}
		qids, queries, err := decodeIDCodeBatch(values, opt.Bits)
		if err != nil {
			return err
		}
		results, _ := core.SearchBatch(idx, queries, opt.Threshold, opt.SearchWorkers)
		// Ids travel big-endian, so byte order is numeric order: sorting the
		// pairs as integers here hands the runtime's output sort a run it
		// recognises as sorted in one pass.
		pairs := make([]uint64, 0, len(results))
		for i, matches := range results {
			for _, m := range matches {
				k, v := m, qids[i]
				if queryFirst {
					k, v = v, k
				}
				pairs = append(pairs, uint64(k)<<32|uint64(uint32(v)))
			}
		}
		slices.Sort(pairs)
		recs := make(slab, 8*len(pairs))
		for _, p := range pairs {
			rec := recs.take(8)
			binary.BigEndian.PutUint64(rec, p)
			emit(mapreduce.KV{Key: rec[:4:4], Value: rec[4:]})
		}
		return nil
	}
}

// HammingJoinA is Option A of Section 5.3: the global HA-Index of R — leaves
// included — is broadcast to every node; S is partitioned by the Gray-order
// pivots and every reducer joins its partition against the replicated index.
func HammingJoinA(s []vector.Vec, g *GlobalIndex, pre *Preprocessed, opt Options) (*JoinResult, error) {
	opt = opt.withDefaults()
	pin, err := jobEngine(pre, opt)
	if err != nil {
		return nil, err
	}
	cfg := opt.job("mrha-join-a", routeMapper(pre, 0), matchReducer(g, pin, opt, false),
		mapreduce.Broadcast{Name: "global-ha-index", Size: int64(g.Index.EncodedSizeArena(true))},
		mapreduce.Broadcast{Name: "hash", Size: hashFuncSize(pre)},
		mapreduce.Broadcast{Name: "pivots", Size: pivotsSize(pre)})
	out, metrics, err := mapreduce.Run(cfg, VecInput(s))
	if err != nil {
		return nil, fmt.Errorf("mrjoin: join job (option A): %w", err)
	}
	return &JoinResult{Pairs: decodePairs(out), Metrics: metrics, Engine: engineRan(g, pin, opt.Threshold)}, nil
}

// leaflessJoin runs Option B's join job under the given name: a leafless
// index is broadcast, and reducers search it as matchReducer does and emit
// (qualifying binary code, sid) records for a later join against R's code→id
// table to turn into pairs.
func leaflessJoin(name string, s []vector.Vec, g *GlobalIndex, pre *Preprocessed, pin planner.Strategy, opt Options) ([]mapreduce.KV, mapreduce.Metrics, error) {
	codeLen := bitvec.EncodedLen(opt.Bits)
	reduce := func(key []byte, values [][]byte, emit func(mapreduce.KV)) error {
		idx, _, err := g.searchIndex(pin, opt.Threshold)
		if err != nil {
			return err
		}
		sids, queries, err := decodeIDCodeBatch(values, opt.Bits)
		if err != nil {
			return err
		}
		results, _ := core.SearchCodesBatch(idx, queries, opt.Threshold, opt.SearchWorkers)
		var recs slab
		for i, qcs := range results {
			for _, qc := range qcs {
				emit(mapreduce.KV{Key: qc.AppendBytes(recs.take(codeLen)[:0]), Value: recs.put32(sids[i])})
			}
		}
		return nil
	}
	return mapreduce.Run(opt.job(name, routeMapper(pre, 0), reduce,
		mapreduce.Broadcast{Name: "global-ha-index-leafless", Size: int64(g.Index.EncodedSizeArena(false))},
		mapreduce.Broadcast{Name: "hash", Size: hashFuncSize(pre)},
		mapreduce.Broadcast{Name: "pivots", Size: pivotsSize(pre)}), VecInput(s))
}

// HammingJoinB is Option B of Section 5.3: for large R the leaf id tables
// dominate the index, so a leafless index is broadcast; reducers emit the
// qualifying binary codes, and a post-processing hash join against R's
// code→id table recovers the tuple ids.
func HammingJoinB(s []vector.Vec, g *GlobalIndex, pre *Preprocessed, opt Options) (*JoinResult, error) {
	opt = opt.withDefaults()
	pin, err := jobEngine(pre, opt)
	if err != nil {
		return nil, err
	}
	out, metrics, err := leaflessJoin("mrha-join-b", s, g, pre, pin, opt)
	if err != nil {
		return nil, fmt.Errorf("mrjoin: join job (option B): %w", err)
	}
	// Post-processing: R fits in memory here, so the qualifying codes join
	// against R's in-memory code→ids hash table (Section 5.3's small-R
	// path; the large-R path would be one more MapReduce hash-join).
	t0 := time.Now()
	byCode := make(map[string][]int)
	g.Index.Tuples(func(id int, c bitvec.Code) {
		k := c.Key()
		byCode[k] = append(byCode[k], id)
	})
	var pairs []Pair
	for _, kv := range out {
		c, _, err := bitvec.CodeFromBytes(kv.Key, opt.Bits)
		if err != nil {
			return nil, fmt.Errorf("mrjoin: decoding qualifying code: %w", err)
		}
		sid := decodeID(kv.Value)
		for _, rid := range byCode[c.Key()] {
			pairs = append(pairs, Pair{RID: rid, SID: sid})
		}
	}
	return &JoinResult{Pairs: pairs, Metrics: metrics, PostJoin: time.Since(t0), Engine: engineRan(g, pin, opt.Threshold)}, nil
}

// PMHJoin is the parallel MultiHashTable baseline (Manku et al. extended to
// MapReduce): the entire R table — full-dimensional records — is broadcast
// to every node, S is hash-partitioned, and each reducer builds a
// MultiHashTable (tables per PMH-k) over R's codes and probes it per S
// tuple. Its broadcast cost is O(m·N·d), the term the HA-Index eliminates.
func PMHJoin(r, s []vector.Vec, pre *Preprocessed, tables int, opt Options) (*JoinResult, error) {
	opt = opt.withDefaults()
	if err := checkBits(pre, opt); err != nil {
		return nil, err
	}
	if tables <= 0 {
		tables = 10
	}
	rBytes := int64(0)
	for _, v := range r {
		rBytes += int64(4*len(v) + 8)
	}
	// R's codes are computed once per node from the broadcast records.
	rCodes := hash.HashAll(pre.Hash, r)
	reduce := func(key []byte, values [][]byte, emit func(mapreduce.KV)) error {
		var mh *baseline.MultiHash
		var err error
		if tables == 10 {
			mh, err = baseline.NewMH10(rCodes, nil)
		} else {
			mh, err = baseline.NewMultiHash(rCodes, nil, tables, 1)
		}
		if err != nil {
			return err
		}
		sids, codes, err := decodeIDCodeBatch(values, opt.Bits)
		if err != nil {
			return err
		}
		for i, code := range codes {
			for _, rid := range mh.Search(code, opt.Threshold) {
				emit(mapreduce.KV{Key: encodeUint32(uint32(rid)), Value: encodeUint32(uint32(sids[i]))})
			}
		}
		return nil
	}
	cfg := opt.job("pmh-join", routeMapper(pre, opt.Partitions), reduce,
		mapreduce.Broadcast{Name: "table-r", Size: rBytes},
		mapreduce.Broadcast{Name: "hash", Size: hashFuncSize(pre)})
	out, metrics, err := mapreduce.Run(cfg, VecInput(s))
	if err != nil {
		return nil, fmt.Errorf("mrjoin: PMH join job: %w", err)
	}
	return &JoinResult{Pairs: decodePairs(out), Metrics: metrics}, nil
}

func pivotsSize(pre *Preprocessed) int64 {
	sz := int64(0)
	for _, p := range pre.Pivots {
		sz += int64(p.SizeBytes())
	}
	return sz
}

// ReferenceJoin computes the Hamming-join centrally (nested loop over the
// hashed codes); tests and precision/recall measurements use it as ground
// truth for the distributed plans. Like them it hashes each vector as
// shipped, so callers pass the same r and s they pass the plans.
func ReferenceJoin(r, s []vector.Vec, pre *Preprocessed, h int) []Pair {
	hashShipped := func(vs []vector.Vec) []bitvec.Code {
		out := make([]bitvec.Code, len(vs))
		for i, kv := range VecInput(vs) {
			out[i] = pre.Hash.Hash(shipped(nil, kv.Value))
		}
		return out
	}
	rc, sc := hashShipped(r), hashShipped(s)
	var out []Pair
	for i, a := range rc {
		for j, b := range sc {
			if _, ok := a.DistanceWithin(b, h); ok {
				out = append(out, Pair{RID: i, SID: j})
			}
		}
	}
	return out
}
