package client

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
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

// TestInsertIsOneRoundPerShard: whatever partitions its codes fall in, one
// Router.Insert costs every shard exactly one mutation frame — over 2 and 3
// shards, for a batch of fresh ids and cross-partition moves, for a batch
// whose codes all route to one shard, for a single pair, and for one id
// twice with codes in two partitions, where the later pair is the one that
// stays live, as each shard applies its frame in batch order. A ShardStats
// round on the same connections is the barrier: a server records a frame's
// req.mutate_ns after writing its answer, and before it reads the next frame.
func TestInsertIsOneRoundPerShard(t *testing.T) {
	for _, parts := range []int{2, 3} {
		t.Run(fmt.Sprintf("%d shards", parts), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(50 + parts)))
			const bits = 32
			o := map[int]bitvec.Code{}
			for id := 0; id < 120; id++ {
				o[id] = bitvec.Rand(rng, bits)
			}
			seed := make(map[int]bitvec.Code, len(o))
			for id, c := range o {
				seed[id] = c
			}
			d := buildMutableDeployment(t, rng, bits, parts, seed, -1)
			frames := func() []int64 {
				if _, err := d.router.ShardStats(); err != nil {
					t.Fatal(err)
				}
				n := make([]int64, parts)
				for m, s := range d.servers {
					n[m] = s.Obs().Histogram("req.mutate_ns").Count()
				}
				return n
			}
			// Fresh ids and live ids moved to random codes, in every partition.
			var mixed []int
			for id := 0; id < 20; id++ {
				mixed = append(mixed, id, 500+id)
			}
			// Codes that all fall in one partition, for ids that live anywhere.
			var oneShard []int
			for id := 20; len(oneShard) < 16; id++ {
				oneShard = append(oneShard, id)
			}
			for _, batch := range []struct {
				name   string
				ids    []int
				owners int // partitions the codes fall in
			}{
				{"mixed", mixed, parts},
				{"one shard", oneShard, 1},
				{"one pair", []int{7}, 1},
				{"one id twice", []int{600, 600}, 2}, // the later pair wins
			} {
				codes := make([]bitvec.Code, len(batch.ids))
				owners := map[int]bool{}
				for i := range codes {
					for {
						codes[i] = bitvec.Rand(rng, bits)
						p := histo.PartitionID(d.pivots, codes[i])
						if batch.owners == 1 && i > 0 && p != histo.PartitionID(d.pivots, codes[0]) ||
							batch.owners == len(codes) && owners[p] {
							continue
						}
						owners[p] = true
						break
					}
				}
				if len(owners) != batch.owners {
					t.Fatalf("%s: codes fall in %d partitions, want %d", batch.name, len(owners), batch.owners)
				}
				before := frames()
				if _, err := d.router.Insert(batch.ids, codes); err != nil {
					t.Fatal(err)
				}
				after := frames()
				for m := range after {
					if got := after[m] - before[m]; got != 1 {
						t.Errorf("%s: shard %d answered %d mutation frames for one Insert, want 1", batch.name, m, got)
					}
				}
				for i, id := range batch.ids {
					o[id] = codes[i]
				}
				checkDeployment(t, d, o, rng, bits, 3, 10)
			}
			// A delete is the same round without codes: one live id from
			// every partition, the first of them twice, and ids live nowhere.
			var dels []int
			owned := map[int]bool{}
			for id := range 120 {
				if p := histo.PartitionID(d.pivots, o[id]); !owned[p] {
					owned[p] = true
					dels = append(dels, id)
				}
			}
			if len(owned) != parts {
				t.Fatalf("live ids fall in %d partitions, want %d", len(owned), parts)
			}
			dels = append(dels, dels[0], 9000, 9001)
			before := frames()
			deleted, err := d.router.Delete(dels)
			if err != nil {
				t.Fatal(err)
			}
			after := frames()
			for m := range after {
				if got := after[m] - before[m]; got != 1 {
					t.Errorf("delete: shard %d answered %d mutation frames for one Delete, want 1", m, got)
				}
			}
			if deleted != parts {
				t.Errorf("delete: %d ids reported live, want %d", deleted, parts)
			}
			for _, id := range dels {
				delete(o, id)
			}
			checkDeployment(t, d, o, rng, bits, 3, 10)
			if total := deploymentLen(d); total != len(o) {
				t.Fatalf("deployment holds %d tuples, oracle %d", total, len(o))
			}
		})
	}
}

func deploymentLen(d *mutableDeployment) int {
	total := 0
	for _, sh := range d.shards {
		total += sh.Len()
	}
	return total
}

// TestMutableDeploymentConcurrentChurn hammers a mutable deployment with a
// router-driven mutator while concurrent router searches and top-k run,
// background seals and compactions firing off the small memtable bound. The
// mutator inserts, deletes, and moves its own live ids to codes in another
// partition, which the two shards apply concurrently. Stable ids are never
// mutated: they must appear in every search whose radius demands them and in
// every top-k they rank in, and no answer may list an id twice; after
// quiescing, answers must match the oracle exactly. Run under -race.
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
	// The boundary: the pivot, partition 1's first code, and one bit from it
	// the last code of partition 0. An id moved between the two is within
	// h of a query at the pivot on both sides, so a search or top-k whose
	// legs straddle the move can find it on both shards.
	pivot, edge := d.pivots[0], d.pivots[0].Clone()
	for b := 0; histo.PartitionID(d.pivots, edge) != 0; b++ {
		edge = pivot.Clone()
		edge.FlipBit(b)
	}
	// The searchers dial their own router. One router's requests cannot
	// straddle each other: each holds every shard's connection from its first
	// write to its last read, and takes them in shard order.
	var addrs [][]string
	for _, srv := range d.servers {
		addrs = append(addrs, []string{srv.Addr().String()})
	}
	rs, err := Dial(addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	query := func(srng *rand.Rand) bitvec.Code {
		if srng.Intn(3) == 0 {
			return pivot
		}
		q := stable[srng.Intn(len(stable))].Clone()
		for f := 0; f < srng.Intn(3); f++ {
			q.FlipBit(srng.Intn(bits))
		}
		return q
	}

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
			if len(live) > 0 && mrng.Intn(3) == 0 {
				// Move a live id to a code in another partition: across the
				// boundary, or anywhere.
				id := live[mrng.Intn(len(live))]
				oMu.Lock()
				from := histo.PartitionID(d.pivots, o[id])
				oMu.Unlock()
				c := []bitvec.Code{edge, pivot}[1-from]
				if mrng.Intn(2) == 0 {
					c = clusteredAround(mrng, base, bits, 9)
					for histo.PartitionID(d.pivots, c) == from {
						c = clusteredAround(mrng, base, bits, 9)
					}
				}
				oMu.Lock()
				replaced, err := d.router.Insert([]int{id}, []bitvec.Code{c})
				if err == nil {
					o[id] = c
				}
				oMu.Unlock()
				if err != nil {
					errs <- fmt.Errorf("move: %w", err)
					return
				}
				if replaced != 1 {
					errs <- fmt.Errorf("moving live id %d replaced %d", id, replaced)
					return
				}
			} else if len(live) == 0 || mrng.Intn(2) > 0 {
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

	// stableDist is every stable id's distance from q.
	stableDist := func(q bitvec.Code) []int {
		dist := make([]int, len(stable))
		for id, c := range stable {
			dist[id], _ = q.DistanceWithin(c, bits)
		}
		return dist
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		srng := rand.New(rand.NewSource(950))
		for {
			select {
			case <-done:
				return
			default:
			}
			q := pivot // most often: where the moved ids crowd the top k
			if srng.Intn(2) == 0 {
				q = query(srng)
			}
			const k = 40
			ids, dists, err := rs.TopK([]bitvec.Code{q}, k)
			if err != nil {
				errs <- fmt.Errorf("topk: %w", err)
				return
			}
			if err := checkStableTopK(ids[0], dists[0], stableDist(q), k); err != nil {
				errs <- err
				return
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
				q := query(srng)
				got, err := rs.Search(q, h)
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

// checkStableTopK checks one top-k answer taken while the mutator ran: no id
// twice, and every stable id (ids below len(dist), at distance dist[id]) that
// ranks ahead of the answer's last, or in an answer shorter than k, is in
// it, at its distance. Stable ids are the smallest, so at one distance no
// mutated id ranks ahead of them.
func checkStableTopK(ids, dists, dist []int, k int) error {
	at := map[int]int{}
	for i, id := range ids {
		if _, dup := at[id]; dup {
			return fmt.Errorf("duplicate id %d in top-%d %v", id, k, ids)
		}
		at[id] = i
	}
	for id, dd := range dist {
		i, ok := at[id]
		switch {
		case ok && dists[i] != dd:
			return fmt.Errorf("top-%d: stable id %d at distance %d, want %d", k, id, dists[i], dd)
		case !ok && (len(ids) < k || dd < dists[len(ids)-1] || dd == dists[len(ids)-1] && id < ids[len(ids)-1]):
			return fmt.Errorf("top-%d %v (dists %v): stable id %d at distance %d missing", k, ids, dists, id, dd)
		}
	}
	return nil
}

// TestMutableServerRefusesMutationsWhenImmutable pins the failure mode: an
// immutable server must answer the write and seal frames with an error, not
// corrupt state or hang, and keep the connection. The refusal is the shard's
// answer under the router's default options: one frame, no retry, no
// backoff, one error on the server's books.
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
	r, err := Dial([][]string{{s.Addr().String()}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, mut := range []struct {
		name, refusal string
		run           func() error
	}{
		{"insert", "shard is immutable: write refused", func() error { _, err := r.Insert([]int{1}, []bitvec.Code{codes[0]}); return err }},
		{"delete", "shard is immutable: write refused", func() error { _, err := r.Delete([]int{1}); return err }},
		{"seal", "shard is immutable: seal refused", func() error { _, err := r.Seal(true); return err }},
	} {
		rp := r.shards[0].replicas[0]
		conn := rp.conn
		errors0 := s.Stats().Errors
		err := mut.run()
		if err == nil || !strings.Contains(err.Error(), mut.refusal) {
			t.Fatalf("%s against immutable shard: %v, want it to say %q", mut.name, err, mut.refusal)
		}
		if st := r.Stats(); st.Retries != 0 || st.BackoffWait != 0 {
			t.Fatalf("refused %s was retried: %+v", mut.name, st)
		}
		if n := s.Stats().Errors - errors0; n != 1 {
			t.Fatalf("refused %s cost the server %d errors, want 1", mut.name, n)
		}
		// The connection must survive the refusal: searches still work on it.
		if _, err := r.Search(codes[0], 0); err != nil {
			t.Fatalf("search after refused %s: %v", mut.name, err)
		}
		if rp.conn != conn {
			t.Fatalf("refused %s cost the connection", mut.name)
		}
	}
}
