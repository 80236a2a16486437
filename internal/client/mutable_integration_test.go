package client

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"haindex/internal/bitvec"
	"haindex/internal/core"
	"haindex/internal/histo"
	"haindex/internal/lsm"
	"haindex/internal/server"
	"haindex/internal/wire"
)

// mutableDeployment is an in-process multi-shard mutable serving stack:
// every shard is an lsm.Shard behind server.NewMutable, fronted by a Router.
type mutableDeployment struct {
	pivots  []bitvec.Code
	shards  []*lsm.Shard
	servers []*server.Server
	router  *Router
}

func buildMutableDeployment(t *testing.T, rng *rand.Rand, bits, parts int, seed map[int]bitvec.Code, memtableMax int) *mutableDeployment {
	t.Helper()
	sample := make([]bitvec.Code, 0, len(seed))
	for _, c := range seed {
		sample = append(sample, c)
	}
	pivots := histo.Pivots(sample, parts)
	d := &mutableDeployment{pivots: pivots}
	var addrs [][]string
	for m := 0; m < parts; m++ {
		sh := lsm.New(bits, lsm.Options{
			MemtableMax: memtableMax,
			CompactAt:   2,
		})
		var codes []bitvec.Code
		var ids []int
		for id, c := range seed {
			if histo.PartitionID(pivots, c) == m {
				ids = append(ids, id)
				codes = append(codes, c)
			}
		}
		if len(codes) > 0 {
			if err := sh.Bootstrap(buildFrozen(codes, ids, core.Options{Window: 8})); err != nil {
				t.Fatal(err)
			}
		}
		meta := wire.SnapshotMeta{Part: m, Parts: parts, Length: bits, Pivots: pivots}
		s, err := server.NewMutable(meta, sh, server.Options{Searchers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		d.shards = append(d.shards, sh)
		d.servers = append(d.servers, s)
		addrs = append(addrs, []string{s.Addr().String()})
	}
	r, err := Dial(addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	d.router = r
	return d
}

func bruteSearch(o map[int]bitvec.Code, q bitvec.Code, h int) []int {
	var out []int
	for id, c := range o {
		if _, ok := q.DistanceWithin(c, h); ok {
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}

func checkDeployment(t *testing.T, d *mutableDeployment, o map[int]bitvec.Code, rng *rand.Rand, bits, h, queries int) {
	t.Helper()
	qs := make([]bitvec.Code, queries)
	for i := range qs {
		qs[i] = bitvec.Rand(rng, bits)
		if len(o) > 0 && rng.Intn(3) > 0 {
			for id := range o {
				qs[i] = o[id].Clone()
				break
			}
			for f := 0; f < rng.Intn(4); f++ {
				qs[i].FlipBit(rng.Intn(bits))
			}
		}
	}
	got, err := d.router.SearchBatch(qs, h)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		want := bruteSearch(o, q, h)
		if !equalInts(got[i], want) {
			t.Fatalf("query %d: got %v want %v", i, got[i], want)
		}
	}
	// Top-k with global (distance, id) order.
	k := 1 + rng.Intn(8)
	ids, dists, err := d.router.TopK(qs[:1], k)
	if err != nil {
		t.Fatal(err)
	}
	type cand struct{ id, d int }
	var cands []cand
	for id, c := range o {
		dd, _ := qs[0].DistanceWithin(c, bits)
		cands = append(cands, cand{id, dd})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].d != cands[j].d {
			return cands[i].d < cands[j].d
		}
		return cands[i].id < cands[j].id
	})
	if len(cands) > k {
		cands = cands[:k]
	}
	if len(ids[0]) != len(cands) {
		t.Fatalf("topk: got %v want %v", ids[0], cands)
	}
	for i := range cands {
		if ids[0][i] != cands[i].id || dists[0][i] != cands[i].d {
			t.Fatalf("topk[%d]: got (%d,%d) want (%d,%d)", i, ids[0][i], dists[0][i], cands[i].id, cands[i].d)
		}
	}
}

func clusteredAround(rng *rand.Rand, base bitvec.Code, bits, flips int) bitvec.Code {
	c := base.Clone()
	for f := 0; f < rng.Intn(flips+1); f++ {
		c.FlipBit(8 + rng.Intn(bits-8))
	}
	return c
}

// TestMutableDeploymentMatchesOracle is the serving-tier acceptance test:
// a sharded mutable deployment under inserts, upserts (including ones whose
// new code moves to a different partition), deletes, seals, and compactions
// must answer searches and top-k byte-identically to a brute-force oracle.
func TestMutableDeploymentMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	const bits, parts, h = 32, 3, 3
	base := bitvec.Rand(rng, bits)
	o := map[int]bitvec.Code{}
	for id := 0; id < 150; id++ {
		o[id] = clusteredAround(rng, base, bits, 9)
	}
	seed := make(map[int]bitvec.Code, len(o))
	for id, c := range o {
		seed[id] = c
	}
	d := buildMutableDeployment(t, rng, bits, parts, seed, -1)
	checkDeployment(t, d, o, rng, bits, h, 20)

	// Fresh inserts through the router.
	var ids []int
	var codes []bitvec.Code
	for id := 150; id < 260; id++ {
		c := clusteredAround(rng, base, bits, 9)
		ids = append(ids, id)
		codes = append(codes, c)
		o[id] = c
	}
	replaced, err := d.router.Insert(ids, codes)
	if err != nil {
		t.Fatal(err)
	}
	if replaced != 0 {
		t.Fatalf("fresh inserts reported %d replaced", replaced)
	}
	checkDeployment(t, d, o, rng, bits, h, 20)

	// Upserts: rewrite 40 existing ids with fresh random codes — most will
	// land in a different Gray partition, exercising the cross-shard retire.
	ids, codes = nil, nil
	for id := 0; id < 40; id++ {
		c := bitvec.Rand(rng, bits)
		ids = append(ids, id)
		codes = append(codes, c)
		o[id] = c
	}
	if replaced, err = d.router.Insert(ids, codes); err != nil {
		t.Fatal(err)
	}
	if replaced != 40 {
		t.Fatalf("upserts of 40 live ids reported %d replaced", replaced)
	}
	checkDeployment(t, d, o, rng, bits, h, 20)
	if total := deploymentLen(d); total != len(o) {
		t.Fatalf("deployment holds %d tuples, oracle %d — an upsert left a duplicate", total, len(o))
	}

	// Seal everything into segments, then delete through the frozen layer.
	if _, err := d.router.Seal(false); err != nil {
		t.Fatal(err)
	}
	ids = nil
	for id := 50; id < 90; id++ {
		ids = append(ids, id)
		delete(o, id)
	}
	deleted, err := d.router.Delete(ids)
	if err != nil {
		t.Fatal(err)
	}
	if deleted != 40 {
		t.Fatalf("deleted %d of 40 live ids", deleted)
	}
	if deleted, err = d.router.Delete(ids); err != nil {
		t.Fatal(err)
	}
	if deleted != 0 {
		t.Fatalf("re-delete of dead ids reported %d deleted", deleted)
	}
	checkDeployment(t, d, o, rng, bits, h, 20)

	// Compact: tombstones fold away, answers unchanged.
	seals, err := d.router.Seal(true)
	if err != nil {
		t.Fatal(err)
	}
	for m, sok := range seals {
		if sok.Tombstones != 0 {
			t.Fatalf("shard %d: compaction left %d tombstones", m, sok.Tombstones)
		}
		if sok.MemtableSize != 0 {
			t.Fatalf("shard %d: seal left %d memtable entries", m, sok.MemtableSize)
		}
	}
	checkDeployment(t, d, o, rng, bits, h, 25)
}

func deploymentLen(d *mutableDeployment) int {
	total := 0
	for _, sh := range d.shards {
		total += sh.Len()
	}
	return total
}

// TestMutableDeploymentConcurrentChurn hammers a mutable deployment with a
// router-driven mutator while concurrent router searches run, background
// seals and compactions firing off the small memtable bound. Stable ids are
// never mutated and must appear in every search whose radius demands them;
// after quiescing, answers must match the oracle exactly. Run under -race.
func TestMutableDeploymentConcurrentChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(707))
	const bits, parts, h = 32, 2, 3
	base := bitvec.Rand(rng, bits)
	o := map[int]bitvec.Code{}
	stable := make([]bitvec.Code, 60)
	for id := range stable {
		stable[id] = clusteredAround(rng, base, bits, 9)
		o[id] = stable[id]
	}
	d := buildMutableDeployment(t, rng, bits, parts, o, 32)

	var oMu sync.Mutex
	done := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 8)

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		mrng := rand.New(rand.NewSource(808))
		next := 1000
		var live []int
		for i := 0; i < 300; i++ {
			if len(live) == 0 || mrng.Intn(3) > 0 {
				c := clusteredAround(mrng, base, bits, 9)
				id := next
				next++
				oMu.Lock()
				_, err := d.router.Insert([]int{id}, []bitvec.Code{c})
				if err == nil {
					o[id] = c
					live = append(live, id)
				}
				oMu.Unlock()
				if err != nil {
					errs <- fmt.Errorf("insert: %w", err)
					return
				}
			} else {
				k := mrng.Intn(len(live))
				id := live[k]
				live = append(live[:k], live[k+1:]...)
				oMu.Lock()
				_, err := d.router.Delete([]int{id})
				if err == nil {
					delete(o, id)
				}
				oMu.Unlock()
				if err != nil {
					errs <- fmt.Errorf("delete: %w", err)
					return
				}
			}
			if i%100 == 50 {
				if _, err := d.router.Seal(i%200 == 50); err != nil {
					errs <- fmt.Errorf("seal: %w", err)
					return
				}
			}
		}
	}()

	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			srng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-done:
					return
				default:
				}
				q := stable[srng.Intn(len(stable))].Clone()
				for f := 0; f < srng.Intn(3); f++ {
					q.FlipBit(srng.Intn(bits))
				}
				got, err := d.router.Search(q, h)
				if err != nil {
					errs <- fmt.Errorf("search: %w", err)
					return
				}
				have := map[int]bool{}
				for _, id := range got {
					if have[id] {
						errs <- fmt.Errorf("duplicate id %d in result", id)
						return
					}
					have[id] = true
				}
				for id, c := range stable {
					if _, ok := q.DistanceWithin(c, h); ok && !have[id] {
						errs <- fmt.Errorf("stable id %d missing at h=%d", id, h)
						return
					}
				}
			}
		}(int64(900 + w))
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if _, err := d.router.Seal(true); err != nil {
		t.Fatal(err)
	}
	checkDeployment(t, d, o, rng, bits, h, 25)
}

// TestMutableServerRefusesMutationsWhenImmutable pins the failure mode: an
// immutable server must answer v3 mutation frames with an error, not
// corrupt state or hang.
func TestMutableServerRefusesMutationsWhenImmutable(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	codes := make([]bitvec.Code, 50)
	for i := range codes {
		codes[i] = bitvec.Rand(rng, 32)
	}
	pivots := histo.Pivots(codes, 1)
	meta := wire.SnapshotMeta{Part: 0, Parts: 1, Length: 32, Pivots: pivots}
	s, err := server.New(meta, buildFrozen(codes, nil, core.Options{}), server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	r, err := Dial([][]string{{s.Addr().String()}}, Options{MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Insert([]int{1}, []bitvec.Code{codes[0]}); err == nil {
		t.Fatal("insert against immutable shard succeeded")
	}
	// The connection must survive the refusal: searches still work.
	if _, err := r.Search(codes[0], 0); err != nil {
		t.Fatalf("search after refused mutation: %v", err)
	}
}
