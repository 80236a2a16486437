package client

import (
	"fmt"
	"sync"

	"haindex/internal/bitvec"
	"haindex/internal/histo"
	"haindex/internal/obs"
	"haindex/internal/wire"
)

// The mutation side of the router, for deployments whose shards serve a
// mutable LSM tier (haserve -mutable). Against immutable shards the
// server's error frame surfaces through the normal retry path.

// invalidateCaches bumps the deployment-wide mutation generation after a
// mutation was issued, making every merged result-cache entry filled before
// it unreachable. It is called whether or not the mutation fully succeeded —
// some shards may have applied their part, and over-invalidation only costs
// misses. Bumping after (not before) issuing keeps racing lookups
// linearizable: a fill at the old generation can only be read by a lookup
// that also started before the mutation completed.
func (r *Router) invalidateCaches() {
	r.depGen.Add(1)
}

// bumpShard invalidates one shard's partial-result entries. Mutations call
// it only for shards whose result set actually changed — a broadcast delete
// that found nothing to delete leaves the shard's partials valid, which is
// what makes CachePartials worth having: an insert landing on shard 1
// does not evict the partials of shard 0.
func (r *Router) bumpShard(m int) {
	if m < len(r.shardGens) {
		r.shardGens[m].Add(1)
	}
}

// Insert applies a batch of upserts across the deployment. Each (id, code)
// pair is routed to the shard owning the code's Gray partition — the same
// pivot routing the build used, so mutations land where a future search
// will look. The ids are also broadcast as deletes to every other shard: an
// upsert that moves an id across a partition boundary (its code changed
// ranges) must retire the old copy wherever it lives, leaving exactly one
// live version deployment-wide. It returns how many pairs superseded an
// older live version.
func (r *Router) Insert(ids []int, codes []bitvec.Code) (int, error) {
	if len(ids) != len(codes) {
		return 0, fmt.Errorf("client: %d ids but %d codes", len(ids), len(codes))
	}
	if err := r.checkQueries(codes); err != nil {
		return 0, err
	}
	if len(ids) == 0 {
		return 0, nil
	}
	ownIDs := make([][]int, len(r.shards))
	ownCodes := make([][]bitvec.Code, len(r.shards))
	for i, c := range codes {
		m := histo.PartitionID(r.pivots, c)
		ownIDs[m] = append(ownIDs[m], ids[i])
		ownCodes[m] = append(ownCodes[m], c)
	}
	replaced := 0
	var mu sync.Mutex
	var wg sync.WaitGroup
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	for m := range r.shards {
		var foreign []int
		for i := range ids {
			if histo.PartitionID(r.pivots, codes[i]) != m {
				foreign = append(foreign, ids[i])
			}
		}
		if len(ownIDs[m]) == 0 && len(foreign) == 0 {
			continue
		}
		wg.Add(1)
		go func(m int, foreign []int) {
			defer wg.Done()
			sh := r.shards[m]
			if len(foreign) > 0 {
				resp, err := r.deleteOn(sh, foreign)
				if err != nil {
					r.bumpShard(m) // state unknown; over-invalidate
					fail(err)
					return
				}
				if resp.Deleted > 0 {
					r.bumpShard(m)
				}
				mu.Lock()
				replaced += resp.Deleted
				mu.Unlock()
			}
			if len(ownIDs[m]) == 0 {
				return
			}
			// The insert lands here whatever the outcome reports; the
			// shard's partials are stale either way.
			defer r.bumpShard(m)
			req := wire.InsertReq{Length: r.length, IDs: ownIDs[m], Codes: ownCodes[m]}
			respType, body, err := r.do(sh, routePrimary, 0, wire.MsgInsert, req.Append(nil), nil, obs.NoSpan)
			if err == nil && respType != wire.MsgInsertOK {
				err = fmt.Errorf("client: shard %d answered %s", m, respType)
			}
			var resp wire.InsertResp
			if err == nil {
				resp, err = wire.ParseInsertResp(body)
			}
			if err != nil {
				fail(err)
				return
			}
			mu.Lock()
			replaced += resp.Replaced
			mu.Unlock()
		}(m, foreign)
	}
	wg.Wait()
	r.invalidateCaches()
	if firstErr != nil {
		return 0, firstErr
	}
	return replaced, nil
}

// Delete removes the tuples with the given ids, wherever they live. Ids are
// broadcast — only codes route, and a delete carries none — and each shard
// quietly skips ids it does not hold. It returns how many ids were live
// somewhere in the deployment.
func (r *Router) Delete(ids []int) (int, error) {
	if len(ids) == 0 {
		return 0, nil
	}
	deleted := 0
	var mu sync.Mutex
	var wg sync.WaitGroup
	var firstErr error
	for m := range r.shards {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			resp, err := r.deleteOn(r.shards[m], ids)
			if err != nil || resp.Deleted > 0 {
				r.bumpShard(m)
			}
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			deleted += resp.Deleted
		}(m)
	}
	wg.Wait()
	r.invalidateCaches()
	if firstErr != nil {
		return 0, firstErr
	}
	return deleted, nil
}

func (r *Router) deleteOn(sh *shard, ids []int) (wire.DeleteResp, error) {
	respType, body, err := r.do(sh, routePrimary, 0, wire.MsgDelete, wire.DeleteReq{IDs: ids}.Append(nil), nil, obs.NoSpan)
	if err == nil && respType != wire.MsgDeleteOK {
		err = fmt.Errorf("client: shard %d answered %s", sh.part, respType)
	}
	if err != nil {
		return wire.DeleteResp{}, err
	}
	return wire.ParseDeleteResp(body)
}

// Seal asks every shard to freeze its memtable into a segment now, and with
// compact set to also compact its segment stack. It returns the per-shard
// layering, indexed by partition id. Since seals are synchronous on the
// server, a returned Seal is a deployment-wide barrier: every previously
// acknowledged mutation is in an immutable segment.
func (r *Router) Seal(compact bool) ([]wire.SealOK, error) {
	out := make([]wire.SealOK, len(r.shards))
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	payload := wire.SealReq{Compact: compact}.Append(nil)
	for m := range r.shards {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			respType, body, err := r.do(r.shards[m], routePrimary, 0, wire.MsgSeal, payload, nil, obs.NoSpan)
			if err == nil && respType != wire.MsgSealOK {
				err = fmt.Errorf("client: shard %d answered %s", m, respType)
			}
			var resp wire.SealOK
			if err == nil {
				resp, err = wire.ParseSealOK(body)
			}
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			out[m] = resp
		}(m)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}
