package mrjoin

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"haindex/internal/bitvec"
	"haindex/internal/core"
	"haindex/internal/mapreduce"
	"haindex/internal/mih"
	"haindex/internal/planner"
	"haindex/internal/vector"
)

// GlobalIndex is the phase-2 output: the global HA-Index over R together
// with the cost of producing it.
type GlobalIndex struct {
	// Index is the forest of the partitions' arenas, laid in partition order:
	// what the join and select reducers search, by HA's walk or by the engine
	// Plan picks over it, and its encoded size is what their broadcasts ship.
	Index   *core.FrozenIndex
	Metrics mapreduce.Metrics
	Merge   time.Duration // laying the partition arenas into one forest
	// DFSWritten and DFSRead are the bytes the local-index persistence
	// moved through the distributed filesystem (zero without Options.FS).
	DFSWritten int64
	DFSRead    int64

	planOnce sync.Once
	plan     *ReducerPlan
	planErr  error
}

// ReducerPlan is the engine choice every join and select reducer over one
// global index shares: a counted plan over HA, MIH built on the forest's own
// leaf arena, and the scan, with what building it took.
type ReducerPlan struct {
	*planner.Planner
	MIHBuild time.Duration // MIH's tables over the forest's leaf arena
	Count    time.Duration // planner.New's counted plan
}

// Plan returns the forest's reducer plan, built on first use and shared by
// every later job over g. In-process, the one build stands for each node
// building MIH from the broadcast arena: the broadcast stays the arena, so no
// job ships MIH's tables. The seed is fixed, as every LSM segment's is, so the
// same forest always gets the same plan.
func (g *GlobalIndex) Plan() (*ReducerPlan, error) {
	g.planOnce.Do(func() {
		view := g.Index.Groups()
		t0 := time.Now()
		m, err := mih.FromGroups(view, mih.Options{})
		if err != nil {
			g.planErr = fmt.Errorf("mrjoin: MIH over the global index: %w", err)
			return
		}
		t1 := time.Now()
		pl, err := planner.New(planner.Engines{HA: g.Index, MIH: m}, planner.Options{Seed: 1})
		if err != nil {
			g.planErr = fmt.Errorf("mrjoin: planning the global index: %w", err)
			return
		}
		g.plan = &ReducerPlan{Planner: pl, MIHBuild: t1.Sub(t0), Count: time.Since(t1)}
	})
	return g.plan, g.planErr
}

// searchIndex returns the engine a reducer searches at threshold h under the
// engine pin, and the strategy it serves. A pin to HA is the forest itself
// and builds no plan; any other engine is the plan's.
func (g *GlobalIndex) searchIndex(pin planner.Strategy, h int) (core.Engine, planner.Strategy, error) {
	if pin == planner.UseHA {
		return g.Index, pin, nil
	}
	rp, err := g.Plan()
	if err != nil {
		return nil, pin, err
	}
	if pin == planner.UsePlan {
		pin = rp.Plan(h).Strategy
	}
	return rp.Index(pin), pin, nil
}

// buildSeq disambiguates DFS paths across pipeline invocations sharing one
// filesystem.
var buildSeq atomic.Int64

// hashFuncSize estimates the broadcast size of the learned hash function:
// the PCA projection matrix plus per-bit parameters.
func hashFuncSize(pre *Preprocessed) int64 {
	return int64(8*pre.Hash.Dim()*pre.Hash.Bits() + 24*pre.Hash.Bits())
}

// partitionJob runs the first MapReduce job of Figure 5 under name: every
// mapper hashes its R tuples into binary codes and routes them to the
// partition owning their Gray range (binary search over the broadcast
// pivots), and every reducer decodes its partition's ids and codes and hands
// them to build. build may run more than once for a partition (a retried or
// speculative attempt), so what it does with them must be idempotent.
func partitionJob(name string, r []vector.Vec, pre *Preprocessed, opt Options, build func(pid int, ids []int, codes []bitvec.Code) error) (mapreduce.Metrics, error) {
	if err := checkBits(pre, opt); err != nil {
		return mapreduce.Metrics{}, err
	}
	reduce := func(key []byte, values [][]byte, emit func(mapreduce.KV)) error {
		ids, codes, err := decodeIDCodeBatch(values, opt.Bits)
		if err != nil {
			return err
		}
		return build(decodeID(key), ids, codes)
	}
	cfg := opt.job(name, routeMapper(pre, 0), reduce,
		mapreduce.Broadcast{Name: "pivots", Size: pivotsSize(pre)},
		mapreduce.Broadcast{Name: "hash", Size: hashFuncSize(pre)})
	_, metrics, err := mapreduce.Run(cfg, VecInput(r))
	return metrics, err
}

// BuildGlobalIndex runs the Figure-5 build job (partitionJob) with reducers
// that bulkload their partition's HA-Index by H-Build straight into the
// serving arena (core.BuildFrozen); the partition arenas are then laid one
// after another into the global index for R (core.Forest). A partition is
// one Gray range, so the forest's hierarchies are the ranges' own and its
// roots have nothing to consolidate across partitions.
func BuildGlobalIndex(r []vector.Vec, pre *Preprocessed, opt Options) (*GlobalIndex, error) {
	opt = opt.withDefaults()
	var mu sync.Mutex
	locals := make([]*core.FrozenIndex, opt.Partitions)
	var dfsPrefix string
	var wBefore, rBefore int64
	if opt.FS != nil {
		dfsPrefix = fmt.Sprintf("/haindex/build-%d/", buildSeq.Add(1))
		wBefore, rBefore = opt.FS.BytesWritten(), opt.FS.BytesRead()
	}

	metrics, err := partitionJob("mrha-build-index", r, pre, opt, func(pid int, ids []int, codes []bitvec.Code) error {
		rows := make([]uint64, 0, len(codes)*((opt.Bits+63)/64))
		for _, c := range codes {
			rows = append(rows, c.Words()...)
		}
		// The reducer-side H-Build over one partition.
		local := core.BuildFrozen(opt.Bits, rows, ids, core.Options{})
		if opt.FS != nil {
			// Persist the local arena to the DFS, as the paper's reducers
			// do; the merge phase reads it back. The write is idempotent so
			// a re-executed or speculative attempt can rewrite the same
			// part file.
			w := opt.FS.CreateIdempotent(fmt.Sprintf("%spart-%05d", dfsPrefix, pid))
			if err := local.EncodeArena(w, true); err != nil {
				return fmt.Errorf("encoding local index %d: %w", pid, err)
			}
			return w.Close()
		}
		// Keyed by partition so a re-executed or speculative attempt
		// overwrites (with identical content) instead of duplicating.
		mu.Lock()
		locals[pid] = local
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("mrjoin: build-index job: %w", err)
	}
	if opt.FS != nil {
		// The part files list in partition order.
		for _, path := range opt.FS.List(dfsPrefix) {
			data, err := opt.FS.ReadFile(path)
			if err != nil {
				return nil, fmt.Errorf("mrjoin: reading local index %s: %w", path, err)
			}
			local, err := core.DecodeArenaBytes(data)
			if err != nil {
				return nil, fmt.Errorf("mrjoin: decoding local index %s: %w", path, err)
			}
			locals = append(locals, local)
		}
	}
	parts := make([]*core.FrozenIndex, 0, len(locals))
	for _, l := range locals {
		if l != nil {
			parts = append(parts, l)
		}
	}
	if len(parts) == 0 {
		return nil, fmt.Errorf("mrjoin: no local indexes built (empty R?)")
	}
	t0 := time.Now()
	global, err := core.Forest(parts...)
	if err != nil {
		return nil, fmt.Errorf("mrjoin: merging local indexes: %w", err)
	}
	out := &GlobalIndex{Index: global, Metrics: metrics, Merge: time.Since(t0)}
	if opt.FS != nil {
		out.DFSWritten = opt.FS.BytesWritten() - wBefore
		out.DFSRead = opt.FS.BytesRead() - rBefore
	}
	return out, nil
}
