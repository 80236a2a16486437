// Package qcache is a sharded, bounded result cache for Hamming-select
// answers. An entry maps one fully-resolved query — the code's words, the
// threshold, the access path that computed it, and the index epoch it was
// computed against — to the sorted id list the index returned.
//
// Correctness under mutation comes entirely from the key: the epoch field
// is a monotone version of the backing index (lsm.Shard.Version on a
// mutable server, the constant 0 on an immutable index). A mutation bumps
// the version, every later lookup uses the new key, and stale entries are
// never read again — they age out of the bound like any other cold entry.
// No invalidation traffic exists.
//
// Admission is TinyLFU-style so one-hit wonders cannot evict the hot set: a
// small count-min sketch of 4-bit counters estimates each key's access
// frequency, and a full shard admits a newcomer only by evicting a sampled
// victim with a lower estimate. The sketch halves itself periodically so
// the frequency window tracks the recent workload.
package qcache

import (
	"encoding/binary"
	"sync"

	"haindex/internal/bitvec"
	"haindex/internal/obs"
)

// Key identifies one cached result. Epoch is the invalidation token: any
// result-changing mutation of the backing index must be visible as a new
// Epoch value, which keys the entry space afresh. Shard names the partition
// a partial result belongs to; the server and the router's affinity hash
// both leave it -1.
type Key struct {
	Code   bitvec.Code
	H      int
	Engine int
	Shard  int
	Epoch  uint64
	// Append packs the fields fixed-width (epoch, h, engine, shard+1, word
	// count, then the code words), so two keys collide iff they are equal —
	// pinned by the package's property and fuzz tests.
}

// Append packs the key into dst and returns the extended slice. The caller
// reuses dst across lookups to keep the hot path allocation-free.
func (k Key) Append(dst []byte) []byte {
	var hdr [20]byte
	binary.BigEndian.PutUint64(hdr[0:], k.Epoch)
	binary.BigEndian.PutUint32(hdr[8:], uint32(k.H))
	binary.BigEndian.PutUint32(hdr[12:], uint32(k.Engine))
	binary.BigEndian.PutUint32(hdr[16:], uint32(k.Shard+1))
	dst = append(dst, hdr[:]...)
	words := k.Code.Words()
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(words)))
	for _, w := range words {
		dst = binary.BigEndian.AppendUint64(dst, w)
	}
	return dst
}

// Options configures a Cache.
type Options struct {
	// MaxEntries bounds the total number of cached results across all
	// shards (0 = 65536).
	MaxEntries int
	// MaxIDs bounds one entry's result length; longer results bypass the
	// cache — they are the expensive-to-hold, cheap-to-skip tail (0 = 4096).
	MaxIDs int
	// Shards is the number of independently locked segments, rounded up to
	// a power of two (0 = 16).
	Shards int
	// Obs, when set, is where the hit/miss/eviction/bypass counters and the
	// entries gauge register, under the "qcache." prefix; nil keeps the
	// cache's counters private.
	Obs *obs.Registry
}

// Cache is a sharded, bounded result cache. Safe for concurrent use. The
// id slices returned by Get and handed to Put are shared with the cache
// and must be treated as immutable by every caller.
type Cache struct {
	shards []cshard
	mask   uint64
	maxIDs int

	hits      *obs.Counter
	misses    *obs.Counter
	evictions *obs.Counter
	bypass    *obs.Counter
	entries   *obs.Gauge
}

type entry struct {
	ids  []int
	h    uint64 // the key's hash, kept so victim sampling needn't re-hash
	last uint64 // shard access clock at last hit; the recency signal
}

type cshard struct {
	mu    sync.Mutex
	m     map[string]*entry
	cap   int
	clock uint64
	sk    sketch
	_     [24]byte // keep neighbouring shards off one cache line
}

// New builds a cache. A nil Obs gives it private counters.
func New(opts Options) *Cache {
	if opts.MaxEntries <= 0 {
		opts.MaxEntries = 1 << 16
	}
	if opts.MaxIDs <= 0 {
		opts.MaxIDs = 4096
	}
	ns := opts.Shards
	if ns <= 0 {
		ns = 16
	}
	for ns&(ns-1) != 0 {
		ns++
	}
	if opts.MaxEntries < ns {
		ns = 1
	}
	reg := opts.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	c := &Cache{
		shards:    make([]cshard, ns),
		mask:      uint64(ns - 1),
		hits:      reg.Counter("qcache.hits"),
		misses:    reg.Counter("qcache.misses"),
		evictions: reg.Counter("qcache.evictions"),
		bypass:    reg.Counter("qcache.bypass"),
		entries:   reg.Gauge("qcache.entries"),
	}
	perShard := (opts.MaxEntries + ns - 1) / ns
	for i := range c.shards {
		sh := &c.shards[i]
		sh.cap = perShard
		sh.m = make(map[string]*entry, perShard)
		sh.sk.init(perShard)
	}
	c.maxIDs = opts.MaxIDs
	return c
}

// Get returns the result cached under the packed key kb (built with
// Key.Append into a caller-reused buffer), if any. The returned slice is
// shared and read-only. Every lookup — hit or miss — feeds the admission
// sketch, so a key's frequency accrues before it is ever admitted.
func (c *Cache) Get(kb []byte) ([]int, bool) {
	h := hash(kb)
	sh := &c.shards[h&c.mask]
	sh.mu.Lock()
	sh.sk.inc(h)
	e, ok := sh.m[string(kb)]
	var ids []int
	if ok {
		sh.clock++
		e.last = sh.clock
		// The slice must be read under the lock: Put's concurrent-fill path
		// rewrites e.ids, and a torn slice header could pair a new length
		// with an older, smaller backing array.
		ids = e.ids
	}
	sh.mu.Unlock()
	if !ok {
		c.misses.Inc()
		return nil, false
	}
	c.hits.Inc()
	return ids, true
}

// Put caches ids (which may be nil: a no-match answer is as cacheable as
// any other) under the packed key kb, admitting it TinyLFU-style when the
// shard is full: a sampled victim with a lower estimated frequency is
// evicted, otherwise the newcomer is bypassed. The ids slice is retained
// and must not be mutated afterwards; kb is copied.
func (c *Cache) Put(kb []byte, ids []int) {
	if len(ids) > c.maxIDs {
		c.bypass.Inc()
		return
	}
	h := hash(kb)
	sh := &c.shards[h&c.mask]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.m[string(kb)]; ok {
		// A concurrent fill of the same key. The two answers can differ — a
		// fill racing a mutation may capture the epoch before the search and
		// the index state after it — but either is a valid answer for a read
		// concurrent with that write, and readers see exactly one of them
		// because Get copies the slice header under this same lock.
		e.ids = ids
		return
	}
	if len(sh.m) >= sh.cap {
		victim, vfreq := sh.sampleVictim()
		if victim == "" || sh.sk.estimate(h) <= vfreq {
			c.bypass.Inc()
			return
		}
		delete(sh.m, victim)
		c.evictions.Inc()
		c.entries.Add(-1)
	}
	sh.clock++
	sh.m[string(kb)] = &entry{ids: ids, h: h, last: sh.clock}
	c.entries.Add(1)
}

// sampleVictim scans a handful of entries (map range order is effectively
// random) and nominates the one with the lowest (frequency, recency) as the
// eviction candidate, returning its key and estimated frequency.
func (sh *cshard) sampleVictim() (string, uint32) {
	const sample = 5
	var (
		victim string
		vfreq  uint32
		vlast  uint64
		seen   int
	)
	for k, e := range sh.m {
		f := sh.sk.estimate(e.h)
		if seen == 0 || f < vfreq || (f == vfreq && e.last < vlast) {
			victim, vfreq, vlast = k, f, e.last
		}
		seen++
		if seen >= sample {
			break
		}
	}
	return victim, vfreq
}

// Warmth reports the cache's current occupancy and lifetime hit/miss
// counts — the cheap signal a server exports (wire.StatsResp)
// so a client router can prefer the replica whose cache is already hot.
func (c *Cache) Warmth() (entries, hits, misses int64) {
	return c.entries.Value(), c.hits.Value(), c.misses.Value()
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return n
}

// Hash is FNV-1a over a packed key — dependency-free and good enough to
// spread Gray-coded keys across shards and sketch rows. It is exported for
// the client router, which rendezvous-hashes the same packed keys to pick
// the replica whose cache a query should keep warm.
func Hash(b []byte) uint64 { return hash(b) }

// hash is FNV-1a over the packed key — dependency-free and good enough to
// spread Gray-coded keys across shards and sketch rows.
func hash(b []byte) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime
	}
	return h
}

// sketch is a 4-row count-min sketch of 4-bit saturating counters — the
// TinyLFU frequency estimator. After sampleSize increments every counter is
// halved, so estimates decay toward the recent access distribution.
type sketch struct {
	rows  [4][]uint64 // 16 counters per word
	mask  uint64
	adds  int
	reset int
}

func (s *sketch) init(entries int) {
	w := 64
	for w < entries {
		w *= 2
	}
	words := w / 16
	if words < 1 {
		words = 1
	}
	for r := range s.rows {
		s.rows[r] = make([]uint64, words)
	}
	s.mask = uint64(w - 1)
	s.reset = 8 * w
}

// counterAt splits a slot index into its word and in-word shift.
func counterAt(slot uint64) (word uint64, shift uint) {
	return slot / 16, uint(slot%16) * 4
}

func (s *sketch) inc(h uint64) {
	for r := range s.rows {
		slot := (h >> (uint(r) * 13)) & s.mask
		word, shift := counterAt(slot)
		v := (s.rows[r][word] >> shift) & 0xf
		if v < 15 {
			s.rows[r][word] += 1 << shift
		}
	}
	s.adds++
	if s.adds >= s.reset {
		s.halve()
	}
}

func (s *sketch) estimate(h uint64) uint32 {
	min := uint64(0xf)
	for r := range s.rows {
		slot := (h >> (uint(r) * 13)) & s.mask
		word, shift := counterAt(slot)
		if v := (s.rows[r][word] >> shift) & 0xf; v < min {
			min = v
		}
	}
	return uint32(min)
}

// halve ages the sketch: every 4-bit counter is divided by two in place.
func (s *sketch) halve() {
	for r := range s.rows {
		for i, w := range s.rows[r] {
			s.rows[r][i] = (w >> 1) & 0x7777777777777777
		}
	}
	s.adds = 0
}
