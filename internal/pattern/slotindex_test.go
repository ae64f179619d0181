package pattern

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// indexOnlyMiner is a miner with no region table, driven through the
// entry points that keep its index — newSlot, lookup, release — alone.
// With no table there are no offsets; an itemset's canonical order is
// then ascending id, which randomItemset gives.
func indexOnlyMiner() *IncrementalMiner {
	return &IncrementalMiner{cfg: Config{MaxLength: MaxIdentityLen}.withDefaults(), index: newSlotIndex(0)}
}

// randomItemset draws 1..MaxIdentityLen distinct region ids below n,
// ascending.
func randomItemset(rng *rand.Rand, n int) []RegionID {
	ids := make([]RegionID, 0, MaxIdentityLen)
	for _, id := range rng.Perm(n)[:1+rng.Intn(MaxIdentityLen)] {
		ids = append(ids, RegionID(id))
	}
	slices.Sort(ids)
	return ids
}

// TestSlotIndexOracle runs seeded random insert, lookup and release
// sequences through the miner's index and a map[IdentityKey]int32 side by
// side. Each seed first grows the index from its smallest table through
// several doublings, then releases most of what it holds, so removals
// shift runs in tables of every size; the index's own layout check runs
// throughout.
func TestSlotIndexOracle(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			m := indexOnlyMiner()
			oracle := make(map[IdentityKey]int32)
			var live [][]RegionID
			sizes := map[int]bool{len(m.index.entries): true}
			for op := 0; op < 12000; op++ {
				insertShare := 6 // of 10, while growing
				if op >= 8000 {
					insertShare = 2 // then mostly releases
				}
				switch r := rng.Intn(10); {
				case r < insertShare:
					ids := randomItemset(rng, 24)
					got, ok := m.lookup(ids)
					want, wok := oracle[identityOf(ids)]
					if ok != wok || (ok && got != want) {
						t.Fatalf("op %d: lookup %v = %d, %v; oracle %d, %v", op, ids, got, ok, want, wok)
					}
					if !ok {
						oracle[identityOf(ids)] = m.newSlot(ids)
						live = append(live, ids)
					}
				case r < 8 && len(live) > 0:
					ids := live[rng.Intn(len(live))]
					if got, ok := m.lookup(ids); !ok || got != oracle[identityOf(ids)] {
						t.Fatalf("op %d: lookup %v = %d, %v; oracle %d", op, ids, got, ok, oracle[identityOf(ids)])
					}
				case len(live) > 0:
					i := rng.Intn(len(live))
					ids := live[i]
					m.release(oracle[identityOf(ids)])
					delete(oracle, identityOf(ids))
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
					if s, ok := m.lookup(ids); ok {
						t.Fatalf("op %d: a released itemset is still indexed at slot %d", op, s)
					}
				}
				sizes[len(m.index.entries)] = true
				if op%500 == 0 {
					if err := m.checkIndex(); err != nil {
						t.Fatalf("op %d: %v", op, err)
					}
				}
			}
			if err := m.checkIndex(); err != nil {
				t.Fatal(err)
			}
			if m.index.live != len(oracle) {
				t.Fatalf("index holds %d slots, oracle %d", m.index.live, len(oracle))
			}
			for _, ids := range live {
				if got, ok := m.lookup(ids); !ok || got != oracle[identityOf(ids)] {
					t.Fatalf("lookup %v = %d, %v; oracle %d", ids, got, ok, oracle[identityOf(ids)])
				}
			}
			if len(sizes) < 5 {
				t.Fatalf("the index took %d table sizes; the sequence must force it through several doublings", len(sizes))
			}
		})
	}
}

// TestSlotIndexWrapAround pins a removal whose run wraps past the table's
// end. A and C are homed at the last entry, B and D at entry 0; added in
// that order they fill the last entry and the first three. Releasing A
// leaves B where it is (the hole is behind its home) and pulls C back
// across the wrap and D back a step behind it.
func TestSlotIndexWrapAround(t *testing.T) {
	m := indexOnlyMiner()
	n := len(m.index.entries)
	homedAt := func(home, k int) [][]RegionID {
		var sets [][]RegionID
		for id := RegionID(0); len(sets) < k; id++ {
			if ids := []RegionID{id}; m.index.home(fingerprint(ids)) == home {
				sets = append(sets, ids)
			}
		}
		return sets
	}
	last, first := homedAt(n-1, 3), homedAt(0, 2)
	sets := [][]RegionID{last[0], first[0], last[1], first[1]} // A, B, C, D
	slots := make([]int32, len(sets))
	for i, ids := range sets {
		slots[i] = m.newSlot(ids)
	}
	at := func(want map[int]int32) {
		t.Helper()
		for p, e := range m.index.entries {
			if s, full := want[p]; (e.fp != 0) != full || (full && e.slot != s) {
				t.Fatalf("entry %d holds %+v, want slot %d (layout %v)", p, e, s, m.index.entries)
			}
		}
	}
	at(map[int]int32{n - 1: slots[0], 0: slots[1], 1: slots[2], 2: slots[3]})
	m.release(slots[0])
	at(map[int]int32{n - 1: slots[2], 0: slots[1], 1: slots[3]})
	if err := m.checkIndex(); err != nil {
		t.Fatal(err)
	}
	for i, ids := range sets[1:] {
		if got, ok := m.lookup(ids); !ok || got != slots[i+1] {
			t.Fatalf("lookup %v = %d, %v; want %d", ids, got, ok, slots[i+1])
		}
	}
	for _, ids := range [][]RegionID{sets[0], last[2]} {
		if s, ok := m.lookup(ids); ok {
			t.Fatalf("lookup %v = %d; it is not in the index", ids, s)
		}
	}
}
