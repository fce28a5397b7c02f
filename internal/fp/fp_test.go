package fp

import (
	"hash/fnv"
	"math/rand"
	"testing"
)

// TestHash64MatchesStdlib: Hash64 is FNV-1a 64 exactly, checked against
// hash/fnv on fixed vectors and random byte strings.
func TestHash64MatchesStdlib(t *testing.T) {
	vectors := [][]byte{
		nil,
		{},
		[]byte("a"),
		[]byte("foobar"),
		{0x00},
		{0xFF, 0xFE, 0xFD},
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 64; i++ {
		b := make([]byte, rng.Intn(200))
		rng.Read(b)
		vectors = append(vectors, b)
	}
	for _, v := range vectors {
		ref := fnv.New64a()
		ref.Write(v)
		if got, want := Hash64(v), ref.Sum64(); got != want {
			t.Errorf("Hash64(%q) = %#x, want %#x", v, got, want)
		}
	}
	if Hash64(nil) != offset64 {
		t.Errorf("empty hash must be the offset basis")
	}
}

// TestSetBudgetSemantics: in exact mode a state is re-explored exactly
// when reached with strictly less budget used; fingerprint mode records
// no budget and refuses a non-zero one.
func TestSetBudgetSemantics(t *testing.T) {
	s := NewSet(true)
	if !s.Exact() {
		t.Fatal("NewSet(true) must be exact")
	}
	key := []byte("state-a")
	if !s.Visit(key, 3) {
		t.Fatal("first visit must explore")
	}
	if s.Visit(key, 3) {
		t.Error("same budget must be pruned")
	}
	if s.Visit(key, 5) {
		t.Error("larger budget must be pruned")
	}
	if !s.Visit(key, 1) {
		t.Error("smaller budget must re-explore")
	}
	if s.Visit(key, 2) {
		t.Error("minimum must have been updated to 1")
	}
	if !s.Visit([]byte("state-b"), 9) {
		t.Error("distinct key must explore")
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}

	f := NewSet(false)
	if f.Exact() {
		t.Fatal("NewSet(false) must be fingerprint mode")
	}
	defer func() {
		if recover() == nil {
			t.Error("fingerprint mode must panic on a non-zero budget")
		}
	}()
	f.Visit(key, 1)
}

// TestSetKeyBufferReuse: Visit must not retain the caller's buffer —
// mutating it afterwards must not corrupt the set (the exact mode's
// map conversion copies).
func TestSetKeyBufferReuse(t *testing.T) {
	for _, exact := range []bool{false, true} {
		s := NewSet(exact)
		buf := []byte("first")
		s.Visit(buf, 0)
		copy(buf, "xxxxx")
		if s.Visit([]byte("first"), 0) {
			t.Errorf("exact=%v: recorded key was corrupted by buffer reuse", exact)
		}
	}
}

// TestSetModeParity: both modes agree on explore/prune decisions over a
// random probe sequence at the constant budget fingerprint mode takes
// (no fingerprint collisions expected at this scale).
func TestSetModeParity(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	exactSet, fpSet := NewSet(true), NewSet(false)
	keys := make([][]byte, 200)
	for i := range keys {
		keys[i] = make([]byte, 8+rng.Intn(24))
		rng.Read(keys[i])
	}
	for probe := 0; probe < 5000; probe++ {
		k := keys[rng.Intn(len(keys))]
		a, b := exactSet.Visit(k, 0), fpSet.Visit(k, 0)
		if a != b {
			t.Fatalf("probe %d: exact=%v fingerprint=%v", probe, a, b)
		}
	}
	if exactSet.Len() != fpSet.Len() {
		t.Errorf("Len: exact=%d fingerprint=%d", exactSet.Len(), fpSet.Len())
	}
}

// TestVisitZeroAllocs: a re-probe of a visited state allocates nothing,
// in either mode (the exact mode's lookup uses the compiler's
// non-allocating map[string(bytes)] form).
func TestVisitZeroAllocs(t *testing.T) {
	if RaceEnabled {
		t.Skip("allocation guards are meaningless under -race")
	}
	for _, exact := range []bool{false, true} {
		s := NewSet(exact)
		key := make([]byte, 64)
		for i := range key {
			key[i] = byte(i)
		}
		s.Visit(key, 0)
		allocs := testing.AllocsPerRun(200, func() {
			s.Visit(key, 0)
		})
		if allocs != 0 {
			t.Errorf("exact=%v: %v allocs per visited-state probe, want 0", exact, allocs)
		}
	}
}

// TestTableRevisit: every fingerprint is new exactly once, across the
// probe chains and wrap-arounds of a table grown from its first
// allocation, and VisitHash ignores the key in fingerprint mode.
func TestTableRevisit(t *testing.T) {
	s := NewSet(false)
	rng := rand.New(rand.NewSource(5))
	hs := make([]uint64, 3000)
	for i := range hs {
		hs[i] = rng.Uint64() | 1
	}
	for round := 0; round < 2; round++ {
		for i, h := range hs {
			if got := s.VisitHash(h, nil, 0); got != (round == 0) {
				t.Fatalf("round %d, fingerprint %d: VisitHash = %v", round, i, got)
			}
		}
	}
	if s.Len() != len(hs) {
		t.Errorf("Len = %d, want %d", s.Len(), len(hs))
	}
	if s.VisitHash(hs[0], []byte("ignored"), 0) {
		t.Error("a recorded fingerprint must be pruned whatever key comes with it")
	}
}

// TestTableZeroFingerprint: 0 marks an empty slot, so the zero
// fingerprint is recorded apart from the slots — once, counted by Len
// and ApproxBytes, and distinct from every other fingerprint.
func TestTableZeroFingerprint(t *testing.T) {
	for _, sharded := range []bool{false, true} {
		var visit func(uint64) bool
		var size func() (int, int64)
		if sharded {
			s := NewShardedSet(false)
			visit = func(h uint64) bool { return s.VisitHash(h, nil, 0) }
			size = func() (int, int64) { return s.Len(), s.ApproxBytes() }
		} else {
			s := NewSet(false)
			visit = func(h uint64) bool { return s.VisitHash(h, nil, 0) }
			size = func() (int, int64) { return s.Len(), s.ApproxBytes() }
		}
		if n, b := size(); n != 0 || b != 0 {
			t.Fatalf("sharded=%v: empty set has Len %d, ApproxBytes %d", sharded, n, b)
		}
		if !visit(0) {
			t.Fatalf("sharded=%v: first zero fingerprint must explore", sharded)
		}
		if n, b := size(); n != 1 || b != fpEntryBytes {
			t.Errorf("sharded=%v: after zero: Len %d, ApproxBytes %d", sharded, n, b)
		}
		if visit(0) {
			t.Errorf("sharded=%v: zero fingerprint revisit must be pruned", sharded)
		}
		if !visit(1) || !visit(1<<63) {
			t.Errorf("sharded=%v: non-zero fingerprints must not collide with zero", sharded)
		}
		if n, _ := size(); n != 3 {
			t.Errorf("sharded=%v: Len = %d, want 3", sharded, n)
		}
	}
}

// TestTableGrowthPastMillion grows one table past 2^20 entries, with
// avalanched and with sequential fingerprints, and checks that nothing
// recorded is lost and Len/ApproxBytes track the entries.
func TestTableGrowthPastMillion(t *testing.T) {
	if testing.Short() {
		t.Skip("grows a 16 MB table")
	}
	const n = 1<<20 + 1000
	for _, mixed := range []bool{true, false} {
		fpOf := func(i uint64) uint64 {
			if mixed {
				return Mix64(i) // Mix64(0) == 0: the zero fingerprint is in
			}
			return i
		}
		s := NewSet(false)
		for i := uint64(0); i < n; i++ {
			if !s.VisitHash(fpOf(i), nil, 0) {
				t.Fatalf("mixed=%v: fingerprint %d reported as seen", mixed, i)
			}
		}
		if s.Len() != n || s.ApproxBytes() != n*fpEntryBytes {
			t.Errorf("mixed=%v: Len %d, ApproxBytes %d; want %d, %d",
				mixed, s.Len(), s.ApproxBytes(), n, n*fpEntryBytes)
		}
		for i := uint64(0); i < n; i++ {
			if s.VisitHash(fpOf(i), nil, 0) {
				t.Fatalf("mixed=%v: fingerprint %d lost by growth", mixed, i)
			}
		}
		if got := len(s.fps.slots); got != 1<<21 {
			t.Errorf("mixed=%v: %d slots for %d entries, want %d", mixed, got, n, 1<<21)
		}
	}
}
