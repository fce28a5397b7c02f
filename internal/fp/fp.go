// Package fp provides 64-bit state fingerprinting and budget-aware
// visited sets for the explicit-state search engines (internal/sc,
// internal/ra, internal/smc).
//
// The engines' hot loop is "fingerprint the configuration, look it up
// in the visited set, maybe insert it". Retaining the full serialised
// key per state costs tens to hundreds of bytes each and an allocation
// per insertion; at the state counts of the paper's Table 1-8 sweeps
// the visited set dominates both the heap and the allocator. A Set in
// its default fingerprint mode stores only a 64-bit fingerprint per
// state, in one open-addressed table of 8-byte slots: lookups and
// re-probes are allocation-free, and nothing but the table is stored.
// The fingerprint is the caller's: ra and smc hash their key bytes
// with Hash64 (FNV-1a), sc maintains an incremental sum over its
// state's slots and finishes it with Mix64.
//
// The price is a collision risk: two distinct states with the same 64
// bits are conflated, which can prune reachable states and (in the
// worst case) mask a violation. By the birthday bound the probability
// of any collision among N states is about N^2 / 2^65 — roughly 3e-8
// at a million states and 3e-4 at a hundred million; see DESIGN.md
// for the argument. Exact mode (NewSet(true)) retains the full key
// bytes and is used by the correctness oracles, the parity tests, and
// collision-paranoid runs via the engines' Options.ExactDedup.
package fp

import "math/bits"

// FNV-1a 64-bit parameters (FNV-0 offset basis and prime).
const (
	offset64 = 14695981039346656037
	prime64  = 1099511628211
)

// Hash64 returns the 64-bit FNV-1a hash of b. It is equivalent to
// hash/fnv's New64a but inlineable and allocation-free.
func Hash64(b []byte) uint64 {
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}

// Mix64 is murmur3's 64-bit finalizer: a bijection that avalanches
// every input bit into every output bit.
func Mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Set is a visited set for budget-bounded searches. In exact mode it
// maps a state key to the minimum "budget used" (context switches,
// view switches, path depth, ...) at which the state has been reached:
// a state reached again having used at least as much budget has a
// subset of the futures of the recorded visit and is pruned; reached
// with strictly less budget used, it must be re-explored.
//
// In fingerprint mode (the default) only the 64-bit fingerprint of the
// key is retained, and no budget: every fingerprint-mode search folds
// its budget into the key and visits at budget 0 (see DESIGN.md,
// "Order-independent dedup"). A non-zero budget panics there.
type Set struct {
	exact    map[string]int
	keyBytes int64 // exact mode: total bytes of retained keys
	fps      table // fingerprint mode
}

// NewSet returns an empty visited set. exact selects exact mode (full
// key retention) over the default 64-bit fingerprint mode.
func NewSet(exact bool) *Set {
	if exact {
		return &Set{exact: make(map[string]int)}
	}
	return &Set{}
}

// Exact reports whether the set retains full keys.
func (s *Set) Exact() bool { return s.exact != nil }

// Visit records that the state serialised as key has been reached with
// the given budget used, and reports whether it must be explored: true
// when the state is new or was previously only reached with more budget
// used (the recorded minimum is updated), false when this visit is
// subsumed by an earlier one. key is not retained in fingerprint mode
// and copied (via the map's string conversion) in exact mode, so
// callers may reuse the backing buffer.
func (s *Set) Visit(key []byte, budget int) bool {
	if s.exact == nil {
		return s.VisitHash(Hash64(key), key, budget)
	}
	return visitExact(s.exact, &s.keyBytes, key, budget)
}

// VisitHash is Visit for callers that fingerprint their states
// themselves: h is the state's fingerprint, reused by the engines for
// violation tie-breaking (MixOrdinal). In exact mode h is ignored and
// the full key decides; in fingerprint mode key is ignored and may be
// nil.
func (s *Set) VisitHash(h uint64, key []byte, budget int) bool {
	if s.exact != nil {
		return visitExact(s.exact, &s.keyBytes, key, budget)
	}
	if budget != 0 {
		panic(errBudget)
	}
	return s.fps.insert(h)
}

// errBudget is the panic of a fingerprint-mode visit with a budget.
const errBudget = "fp: a fingerprint-mode visited set records no budget"

// visitExact is the exact-mode visit shared by Set and ShardedSet.
func visitExact(m map[string]int, keyBytes *int64, key []byte, budget int) bool {
	// The map index with an inline []byte->string conversion does not
	// allocate; only the insert of a genuinely new state does.
	prev, ok := m[string(key)]
	if ok && prev <= budget {
		return false
	}
	if !ok {
		*keyBytes += int64(len(key))
	}
	m[string(key)] = budget
	return true
}

// table is an open-addressed set of fingerprints: linear probing over
// a power-of-two slice of slots, where 0 marks an empty slot and the
// zero fingerprint is recorded in a flag instead. The zero table is
// empty and allocates its first slots on the first insert.
type table struct {
	slots []uint64
	shift uint // 64 - log2(len(slots))
	n     int  // occupied slots
	zero  bool // fingerprint 0 recorded
}

// Table sizing: the first allocation is minSlots slots (small, since
// most searches of a litmus sweep are tiny), and the table doubles when
// an insert would fill more than 3/4 of it.
const minSlots = 64

// fibMul is 2^64 / phi: the slot of h is the top bits of h*fibMul
// (Fibonacci hashing), which depend on every bit of h, so fingerprints
// that differ in few bits (FNV-1a of similar keys) still spread.
const fibMul = 0x9E3779B97F4A7C15

// insert records h and reports whether it was new.
func (t *table) insert(h uint64) bool {
	if h == 0 {
		if t.zero {
			return false
		}
		t.zero = true
		return true
	}
	if 4*(t.n+1) > 3*len(t.slots) {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	for i := (h * fibMul) >> t.shift; ; i = (i + 1) & mask {
		switch t.slots[i] {
		case h:
			return false
		case 0:
			t.slots[i] = h
			t.n++
			return true
		}
	}
}

// grow doubles the table (or allocates the first one) and re-places
// every fingerprint.
func (t *table) grow() {
	old := t.slots
	size := max(2*len(old), minSlots)
	t.slots = make([]uint64, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := uint64(size - 1)
	for _, h := range old {
		if h == 0 {
			continue
		}
		i := (h * fibMul) >> t.shift
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = h
	}
}

// len returns the number of recorded fingerprints.
func (t *table) len() int {
	if t.zero {
		return t.n + 1
	}
	return t.n
}

// MixOrdinal derives the fingerprint of the ord-th transition scanned
// out of a state whose key fingerprint is h. The engines' census mode
// keeps the violation with the smallest mixed fingerprint as its
// witness — a tie-break any worker can apply locally, making the chosen
// witness independent of discovery order (see DESIGN.md). One FNV step
// disperses both the ordinal and the state bits.
func MixOrdinal(h uint64, ord int) uint64 {
	return (h ^ uint64(ord+1)) * prime64
}

// Len returns the number of distinct states recorded.
func (s *Set) Len() int {
	if s.exact != nil {
		return len(s.exact)
	}
	return s.fps.len()
}

// Per-entry overheads for ApproxBytes. A fingerprint is one 8-byte
// slot of a table kept between 3/8 and 3/4 full, so 16 bytes is within
// 1.5x of the true figure; an exact entry carries a string header and
// map bucket bookkeeping on top of its key bytes.
const (
	fpEntryBytes    = 16
	exactEntryBytes = 48
)

// ApproxBytes estimates the heap footprint of the visited set: retained
// key bytes plus a constant per entry. It is an O(1) occupancy figure
// for live telemetry (internal/obs SearchStats), not an exact
// accounting — tables and map buckets over-allocate.
func (s *Set) ApproxBytes() int64 {
	if s.exact != nil {
		return s.keyBytes + int64(len(s.exact))*exactEntryBytes
	}
	return int64(s.fps.len()) * fpEntryBytes
}
