package client

import (
	"fmt"

	"haindex/internal/bitvec"
	"haindex/internal/histo"
	"haindex/internal/wire"
)

// The mutation side of the router, for deployments whose shards serve a
// mutable LSM tier (haserve -mutable). Against immutable shards the
// server's error frame surfaces through the normal retry path.

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
	// Two pipelined rounds: retire every id on the shards that do not own its
	// new code, then land the upserts — except on a shard whose delete failed.
	ownIDs := make([][]int, len(r.shards))
	ownCodes := make([][]bitvec.Code, len(r.shards))
	foreign := make([][]int, len(r.shards))
	for i, c := range codes {
		own := histo.PartitionID(r.pivots, c)
		ownIDs[own] = append(ownIDs[own], ids[i])
		ownCodes[own] = append(ownCodes[own], c)
		for m := range r.shards {
			if m != own {
				foreign[m] = append(foreign[m], ids[i])
			}
		}
	}
	var dels, ins []leg
	for m, sh := range r.shards {
		if len(foreign[m]) > 0 {
			dels = append(dels, deleteLeg(sh, foreign[m]))
		}
	}
	replaced := r.runDeletes(dels)
	for _, lg := range dels {
		if lg.err != nil {
			ownIDs[lg.sh.part] = nil
		}
	}
	for m, sh := range r.shards {
		if len(ownIDs[m]) > 0 {
			req := wire.InsertReq{IDs: ownIDs[m], Codes: ownCodes[m]}
			ins = append(ins, leg{sh: sh, t: wire.MsgInsert, want: wire.MsgInsertOK, payload: req.Append(nil)})
		}
	}
	r.fanOut(ins, routePrimary, nil)
	for i := range ins {
		lg := &ins[i]
		var resp wire.InsertResp
		if lg.err == nil {
			resp, lg.err = wire.ParseInsertResp(lg.resp)
		}
		replaced += resp.Replaced
	}
	if err := firstErr(dels, ins); err != nil {
		return 0, err
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
	legs := make([]leg, len(r.shards))
	for m, sh := range r.shards {
		legs[m] = deleteLeg(sh, ids)
	}
	deleted := r.runDeletes(legs)
	if err := firstErr(legs); err != nil {
		return 0, err
	}
	return deleted, nil
}

func deleteLeg(sh *shard, ids []int) leg {
	return leg{sh: sh, t: wire.MsgDelete, want: wire.MsgDeleteOK, payload: wire.DeleteReq{IDs: ids}.Append(nil)}
}

// runDeletes fans delete legs out and returns how many ids they found live;
// a failed leg keeps its error.
func (r *Router) runDeletes(legs []leg) (deleted int) {
	r.fanOut(legs, routePrimary, nil)
	for i := range legs {
		lg := &legs[i]
		var resp wire.DeleteResp
		if lg.err == nil {
			resp, lg.err = wire.ParseDeleteResp(lg.resp)
		}
		deleted += resp.Deleted
	}
	return deleted
}

// firstErr returns the first failed leg's error, in the order given.
func firstErr(rounds ...[]leg) error {
	for _, legs := range rounds {
		for i := range legs {
			if legs[i].err != nil {
				return legs[i].err
			}
		}
	}
	return nil
}

// Seal asks every shard to freeze its memtable into a segment now, and with
// compact set to also compact its segment stack. It returns the per-shard
// layering, indexed by partition id. Since seals are synchronous on the
// server, a returned Seal is a deployment-wide barrier: every previously
// acknowledged mutation is in an immutable segment.
func (r *Router) Seal(compact bool) ([]wire.SealOK, error) {
	out := make([]wire.SealOK, len(r.shards))
	payload := wire.SealReq{Compact: compact}.Append(nil)
	legs := make([]leg, len(r.shards))
	for m, sh := range r.shards {
		legs[m] = leg{sh: sh, t: wire.MsgSeal, want: wire.MsgSealOK, payload: payload}
	}
	r.fanOut(legs, routePrimary, nil)
	for m := range legs {
		lg := &legs[m]
		if lg.err == nil {
			out[m], lg.err = wire.ParseSealOK(lg.resp)
		}
	}
	if err := firstErr(legs); err != nil {
		return nil, err
	}
	return out, nil
}
