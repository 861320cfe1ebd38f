package sortop

import (
	"math/rand"
	"testing"
	"testing/quick"

	"qurk/internal/crowd"
)

// Property: CoverGroups covers all pairs with groups of at most s for
// arbitrary (n, s).
func TestCoverGroupsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	prop := func(_ uint8) bool {
		n := 2 + rng.Intn(30)
		s := 2 + rng.Intn(8)
		groups := CoverGroups(n, s)
		covered := map[[2]int]bool{}
		for _, g := range groups {
			if s < n && len(g) > s {
				return false
			}
			for i := 0; i < len(g); i++ {
				if g[i] < 0 || g[i] >= n {
					return false
				}
				for j := i + 1; j < len(g); j++ {
					covered[pairKey(g[i], g[j])] = true
				}
			}
		}
		return len(covered) == n*(n-1)/2
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: windowPositions returns distinct, in-range, sorted positions
// of size ≤ s for arbitrary (start, s, n).
func TestWindowPositionsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(213))
	prop := func(_ uint8) bool {
		n := 2 + rng.Intn(50)
		s := 1 + rng.Intn(10)
		start := rng.Intn(3 * n)
		pos := windowPositions(start, s, n)
		if len(pos) == 0 || len(pos) > s {
			return false
		}
		seen := map[int]bool{}
		for i, p := range pos {
			if p < 0 || p >= n || seen[p] {
				return false
			}
			if i > 0 && pos[i-1] >= p {
				return false
			}
			seen[p] = true
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: every hybrid trace entry is a permutation of the item set —
// window reinsertion must never drop or duplicate items.
func TestHybridTracePermutationProperty(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		n := 12 + int(seed)*3
		o := &sqOracle{n: n, sigma: 0.1}
		m := crowd.NewSimMarket(crowd.DefaultConfig(seed), o)
		for _, strat := range []WindowStrategy{RandomWindow, ConfidenceWindow, SlidingWindow} {
			hy, err := Hybrid(squares(n), rankTask(), HybridOptions{
				Strategy: strat, WindowSize: 5, Step: 7, Iterations: 8,
				Assignments: 3, Seed: seed,
			}, m)
			if err != nil {
				t.Fatal(err)
			}
			for ti, order := range hy.Trace {
				seen := make([]bool, n)
				for _, idx := range order {
					if idx < 0 || idx >= n || seen[idx] {
						t.Fatalf("seed %d strat %v trace %d not a permutation: %v", seed, strat, ti, order)
					}
					seen[idx] = true
				}
			}
		}
	}
}

// Property: Compare's output order is always a permutation, and pair
// vote totals equal assignments × pair coverage.
func TestComparePermutationProperty(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		n := 8 + int(seed)*4
		o := &sqOracle{n: n, sigma: 0.3}
		m := crowd.NewSimMarket(crowd.DefaultConfig(seed), o)
		res, err := Compare(squares(n), rankTask(), CompareOptions{GroupSize: 4, Assignments: 5}, m)
		if err != nil {
			t.Fatal(err)
		}
		seen := make([]bool, n)
		for _, idx := range res.Order {
			if seen[idx] {
				t.Fatalf("duplicate index in order: %v", res.Order)
			}
			seen[idx] = true
		}
		// Every covered pair has ≥ Assignments votes (overlapping
		// groups may add more).
		for k, pv := range res.Pairs {
			if pv.IOverJ+pv.JOverI < 5 {
				t.Fatalf("pair %v has %d votes, want ≥5", k, pv.IOverJ+pv.JOverI)
			}
		}
	}
}
