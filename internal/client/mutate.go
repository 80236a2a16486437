package client

import (
	"fmt"

	"haindex/internal/bitvec"
	"haindex/internal/wire"
)

// The mutation side of the router, for deployments whose shards serve a
// mutable LSM tier (haserve -mutable). Against immutable shards the
// server's error frame surfaces through the normal retry path.

// Insert applies a batch of upserts across the deployment in one pipelined
// round: every shard receives the whole batch. Each shard upserts the pairs
// whose code falls in its own Gray partition — the same pivot routing the
// build used, so mutations land where a future search will look — and
// deletes the ids of the rest, so an upsert that moves an id across a
// partition boundary retires the old copy wherever it lives, leaving exactly
// one live version deployment-wide. Each shard's frame is its own unit: a
// failed leg fails the call, and the other shards have applied theirs. It
// returns how many pairs superseded an older live version.
func (r *Router) Insert(ids []int, codes []bitvec.Code) (int, error) {
	if len(ids) != len(codes) {
		return 0, fmt.Errorf("client: %d ids but %d codes", len(ids), len(codes))
	}
	if err := r.checkQueries(codes); err != nil {
		return 0, err
	}
	return r.write(wire.InsertReq{IDs: ids, Codes: codes})
}

// Delete removes the tuples with the given ids, wherever they live: it is
// Insert's round with no codes, so every shard deletes every id, quietly
// skipping those it does not hold. It returns how many ids were live
// somewhere in the deployment.
func (r *Router) Delete(ids []int) (int, error) {
	return r.write(wire.InsertReq{IDs: ids})
}

// write sends every shard the write frame and sums the ids the shards
// report live before it.
func (r *Router) write(req wire.InsertReq) (int, error) {
	if len(req.IDs) == 0 {
		return 0, nil
	}
	legs := r.broadcast(wire.MsgInsert, wire.MsgInsertOK, req.Append(nil))
	live := 0
	for i := range legs {
		lg := &legs[i]
		var resp wire.InsertResp
		if lg.err == nil {
			resp, lg.err = wire.ParseInsertResp(lg.resp)
		}
		live += resp.Live
	}
	if err := firstErr(legs); err != nil {
		return 0, err
	}
	return live, nil
}

// broadcast sends every shard's primary the same frame in one pipelined
// round and returns the legs, indexed by partition id; a failed leg keeps
// its error.
func (r *Router) broadcast(t, want wire.MsgType, payload []byte) []leg {
	legs := make([]leg, len(r.shards))
	for m, sh := range r.shards {
		legs[m] = leg{sh: sh, t: t, want: want, payload: payload}
	}
	r.fanOut(legs, routePrimary, nil)
	return legs
}

// firstErr returns the first failed leg's error, in partition order.
func firstErr(legs []leg) error {
	for i := range legs {
		if legs[i].err != nil {
			return legs[i].err
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
	legs := r.broadcast(wire.MsgSeal, wire.MsgSealOK, wire.SealReq{Compact: compact}.Append(nil))
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
