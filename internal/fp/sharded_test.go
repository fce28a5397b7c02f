package fp

import (
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"
)

// randKeys returns n random keys of varying length from a seeded
// source, with deliberate duplicates (every fourth key repeats an
// earlier one) so budget-subsumption paths are exercised.
func randKeys(seed int64, n int) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	keys := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		if i%4 == 3 && i > 0 {
			keys = append(keys, keys[rng.Intn(i)])
			continue
		}
		k := make([]byte, 8+rng.Intn(40))
		rng.Read(k)
		keys = append(keys, k)
	}
	return keys
}

// TestShardedSetSerialParity drives the same random (key, budget)
// sequence through Set and ShardedSet in both modes (budget 0 in
// fingerprint mode, which records none): every Visit
// answer, the final Len and the final ApproxBytes must agree — the
// sharding is pure partitioning, never a semantic change.
func TestShardedSetSerialParity(t *testing.T) {
	for _, exact := range []bool{false, true} {
		rng := rand.New(rand.NewSource(7))
		serial := NewSet(exact)
		sharded := NewShardedSet(exact)
		for _, k := range randKeys(42, 5000) {
			b := 0
			if exact {
				b = rng.Intn(4)
			}
			sv := serial.Visit(k, b)
			pv := sharded.Visit(k, b)
			if sv != pv {
				t.Fatalf("exact=%v: Visit(%x, %d) = %v (sharded) vs %v (serial)", exact, k, b, pv, sv)
			}
		}
		if serial.Len() != sharded.Len() {
			t.Errorf("exact=%v: Len %d (sharded) vs %d (serial)", exact, sharded.Len(), serial.Len())
		}
		if serial.ApproxBytes() != sharded.ApproxBytes() {
			t.Errorf("exact=%v: ApproxBytes %d (sharded) vs %d (serial)",
				exact, sharded.ApproxBytes(), serial.ApproxBytes())
		}
	}
}

// TestShardedSetConcurrentInserts has many goroutines hammer one set
// with overlapping key ranges at constant budget and checks the
// linearizable contract of first-wins visiting: every key is claimed
// by exactly one goroutine (the sum of true answers equals the number
// of distinct keys), and the final occupancy matches a serial replay.
func TestShardedSetConcurrentInserts(t *testing.T) {
	for _, exact := range []bool{false, true} {
		const (
			workers = 8
			keys    = 1 << 15 // ~128 per shard: every shard table grows
		)
		set := NewShardedSet(exact)
		wins := make([]int, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				// Each worker visits every key, in a worker-specific order.
				var buf [8]byte
				for i := 0; i < keys; i++ {
					k := (i*(2*w+1) + w) % keys
					binary.LittleEndian.PutUint64(buf[:], uint64(k))
					if set.Visit(buf[:], 0) {
						wins[w]++
					}
				}
			}(w)
		}
		wg.Wait()
		total := 0
		for _, n := range wins {
			total += n
		}
		if total != keys {
			t.Errorf("exact=%v: %d wins across workers, want exactly %d (one per key)", exact, total, keys)
		}
		if set.Len() != keys {
			t.Errorf("exact=%v: Len = %d, want %d", exact, set.Len(), keys)
		}
	}
}

// TestShardedSetBudgetSubsumptionConcurrent checks the budget
// dimension under concurrency: after workers race visits of one key
// at different budgets, a revisit at the minimum budget is pruned and
// one below it re-explores — the recorded minimum is the global one.
func TestShardedSetBudgetSubsumptionConcurrent(t *testing.T) {
	set := NewShardedSet(true) // only exact mode records budgets
	key := []byte("the-key")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 10; b >= 2+w%3; b-- {
				set.Visit(key, b)
			}
		}(w)
	}
	wg.Wait()
	if set.Visit(key, 2) {
		t.Error("revisit at the recorded minimum budget must be pruned")
	}
	if !set.Visit(key, 1) {
		t.Error("revisit below the recorded minimum must re-explore")
	}
}

// TestShardedSetProbeZeroAllocs guards the concurrent probe path like
// the serial set's test: encoding is the caller's business, but a
// probe of an existing key must not allocate in either mode.
func TestShardedSetProbeZeroAllocs(t *testing.T) {
	if RaceEnabled {
		t.Skip("allocation guards are meaningless under -race")
	}
	for _, exact := range []bool{false, true} {
		set := NewShardedSet(exact)
		key := []byte("zero-alloc-probe-key")
		set.Visit(key, 0)
		h := Hash64(key)
		allocs := testing.AllocsPerRun(500, func() {
			set.Visit(key, 0)
			set.VisitHash(h, key, 0)
		})
		if allocs != 0 {
			t.Errorf("exact=%v: %v allocs per probe, want 0", exact, allocs)
		}
	}
}

// TestShardedSetApproxBytesMonotone checks that ApproxBytes never
// decreases as keys are inserted (entries are only added), in both
// modes, including across duplicate visits which must not change the
// footprint.
func TestShardedSetApproxBytesMonotone(t *testing.T) {
	for _, exact := range []bool{false, true} {
		set := NewShardedSet(exact)
		prev := set.ApproxBytes()
		if prev != 0 {
			t.Fatalf("exact=%v: empty set ApproxBytes = %d, want 0", exact, prev)
		}
		budget := func(i int) int {
			if exact {
				return i % 3
			}
			return 0
		}
		for i, k := range randKeys(11, 2000) {
			set.Visit(k, budget(i))
			if b := set.ApproxBytes(); b < prev {
				t.Fatalf("exact=%v: ApproxBytes decreased %d -> %d at key %d", exact, prev, b, i)
			} else {
				prev = b
			}
		}
		// Re-visiting everything at the same budgets adds no entries.
		before := set.ApproxBytes()
		for i, k := range randKeys(11, 2000) {
			set.Visit(k, budget(i))
		}
		if after := set.ApproxBytes(); after != before {
			t.Errorf("exact=%v: duplicate visits changed ApproxBytes %d -> %d", exact, before, after)
		}
	}
}

// TestShardedSetHashAgreement pins VisitHash to Visit: both must use
// Hash64 of the key, or fingerprint-mode probes through the two entry
// points would see different sets.
func TestShardedSetHashAgreement(t *testing.T) {
	set := NewShardedSet(false)
	key := []byte("agreement")
	if !set.VisitHash(Hash64(key), key, 0) {
		t.Fatal("first VisitHash must explore")
	}
	if set.Visit(key, 0) {
		t.Fatal("Visit after VisitHash of the same key must be pruned")
	}
}
