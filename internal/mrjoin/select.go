package mrjoin

import (
	"fmt"

	"haindex/internal/mapreduce"
	"haindex/internal/vector"
)

// SelectResult is the output of one distributed Hamming-select job.
type SelectResult struct {
	// IDs[i] lists the R tuple ids within the Hamming threshold of query i.
	IDs     [][]int
	Metrics mapreduce.Metrics
	// Engine is the engine the reducers searched R's forest with — "ha",
	// "mih" or "scan" — pinned by Options.Engine or planned.
	Engine string
}

// HammingSelect is the MapReduce Hamming-select of Section 5.2: the global
// HA-Index of R is broadcast to every node, the query stream is spread
// round-robin over the reducers (the index is replicated, so any placement
// is correct — round-robin keeps the load balanced), and each reducer drains
// its query partition through a core.SearchBatch worker pool over the engine
// Options.Engine pins, or over the one the forest's plan picks at the
// threshold (GlobalIndex.Plan), as the join reducers do.
func HammingSelect(queries []vector.Vec, g *GlobalIndex, pre *Preprocessed, opt Options) (*SelectResult, error) {
	opt = opt.withDefaults()
	pin, err := jobEngine(pre, opt)
	if err != nil {
		return nil, err
	}
	cfg := opt.job("mrha-select", routeMapper(pre, opt.Partitions), matchReducer(g, pin, opt, true),
		mapreduce.Broadcast{Name: "global-ha-index", Size: int64(g.Index.EncodedSizeArena(true))},
		mapreduce.Broadcast{Name: "hash", Size: hashFuncSize(pre)})
	out, metrics, err := mapreduce.Run(cfg, VecInput(queries))
	if err != nil {
		return nil, fmt.Errorf("mrjoin: select job: %w", err)
	}
	res := &SelectResult{IDs: make([][]int, len(queries)), Metrics: metrics, Engine: engineRan(g, pin, opt.Threshold)}
	for _, kv := range out {
		qid := decodeID(kv.Key)
		if qid < 0 || qid >= len(queries) {
			return nil, fmt.Errorf("mrjoin: select emitted query id %d outside [0,%d)", qid, len(queries))
		}
		res.IDs[qid] = append(res.IDs[qid], decodeID(kv.Value))
	}
	return res, nil
}
