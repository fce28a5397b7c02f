package fp

import "sync"

// shardCount is the number of shards of a ShardedSet. 256 shards keep
// the probability of two of even 32 workers colliding on one shard
// lock below 2% per probe pair, while the per-shard tables stay large
// enough to amortise their growth. Must be a power of two: shards are
// selected by the high bits of the 64-bit fingerprint, so the
// selection reuses the hash the probe needs anyway and every shard
// receives a uniform slice of the key space.
const shardCount = 256

// shardShift extracts the shard index from the top bits of a
// fingerprint. The in-shard table places fingerprints by all their
// bits, so sharding never degrades its distribution.
const shardShift = 64 - 8

// ShardedSet is the concurrent counterpart of Set: a visited set for
// budget-bounded searches that many workers probe and update at once.
// The key space is partitioned into shardCount independent shards by
// the high bits of the key's 64-bit fingerprint, each shard guarded by
// its own mutex, so concurrent probes contend only when their states
// land in the same 1/256th of the fingerprint space.
//
// Semantics are identical to Set.Visit: first visit wins, and in exact
// mode a revisit with at least as much budget used is pruned, a
// revisit with strictly less budget re-explores. Because the outcome
// of Visit depends only on the key and the budget history of that key
// — never on which worker asks — the set of "explore" answers over any
// concurrent schedule equals the serial set's answers when the engines
// pass a constant budget (the order-independent discipline of the
// parallel explorers; see DESIGN.md).
type ShardedSet struct {
	exact  bool
	shards [shardCount]shard
}

// shard is one lock-striped slice of the set, in Set's fingerprint or
// exact mode. A shard's table allocates on its first insert, so an
// empty ShardedSet costs no table memory.
type shard struct {
	mu       sync.Mutex
	fps      table
	exact    map[string]int
	keyBytes int64 // exact mode: retained key bytes of this shard
}

// NewShardedSet returns an empty concurrent visited set; exact selects
// full-key retention over the default 64-bit fingerprint mode (same
// trade-off as NewSet).
func NewShardedSet(exact bool) *ShardedSet {
	s := &ShardedSet{exact: exact}
	if exact {
		for i := range s.shards {
			s.shards[i].exact = make(map[string]int)
		}
	}
	return s
}

// Exact reports whether the set retains full keys.
func (s *ShardedSet) Exact() bool { return s.exact }

// Visit records that the state serialised as key has been reached with
// the given budget used and reports whether it must be explored (see
// Set.Visit). Safe for concurrent use; key may reuse a caller-owned
// buffer (it is copied only on a new exact-mode insert). The probe
// path is allocation-free in both modes.
func (s *ShardedSet) Visit(key []byte, budget int) bool {
	return s.VisitHash(Hash64(key), key, budget)
}

// VisitHash is Visit for callers that fingerprint their states
// themselves (see Set.VisitHash): the parallel explorers reuse the
// fingerprint for shard selection and violation tie-breaking. In
// fingerprint mode key may be nil.
func (s *ShardedSet) VisitHash(h uint64, key []byte, budget int) bool {
	if !s.exact && budget != 0 {
		panic(errBudget)
	}
	sh := &s.shards[h>>shardShift]
	sh.mu.Lock()
	var ok bool
	if s.exact {
		ok = visitExact(sh.exact, &sh.keyBytes, key, budget)
	} else {
		ok = sh.fps.insert(h)
	}
	sh.mu.Unlock()
	return ok
}

// Len returns the number of distinct states recorded, summed across
// shards. It locks each shard in turn, so concurrent Visits may land
// between shard reads; engines call it on their flush cadence, where a
// momentarily stale occupancy is fine.
func (s *ShardedSet) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		if s.exact {
			n += len(sh.exact)
		} else {
			n += sh.fps.len()
		}
		sh.mu.Unlock()
	}
	return n
}

// ApproxBytes estimates the heap footprint across all shards, using
// the same per-entry constants as Set.ApproxBytes. Like Len it is a
// flush-cadence figure, not a linearizable one, but it is monotone
// over any quiescent sequence of snapshots: entries are only ever
// added.
func (s *ShardedSet) ApproxBytes() int64 {
	var b int64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		if s.exact {
			b += sh.keyBytes + int64(len(sh.exact))*exactEntryBytes
		} else {
			b += int64(sh.fps.len()) * fpEntryBytes
		}
		sh.mu.Unlock()
	}
	return b
}
