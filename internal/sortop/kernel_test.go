package sortop

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"
)

// coverDigest folds CoverGroups(n, s) for every n in [2,120] and s in
// [2,10] — group count, then each group's length and items — into one
// FNV-64a digest.
func coverDigest() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for n := 2; n <= 120; n++ {
		for s := 2; s <= 10; s++ {
			groups := CoverGroups(n, s)
			put(n)
			put(s)
			put(len(groups))
			for _, g := range groups {
				put(len(g))
				for _, x := range g {
					put(x)
				}
			}
		}
	}
	return h.Sum64()
}

// TestCoverGroupsPinned pins every cover the greedy generator builds in
// the range the optimizer enumerates exactly: the HITs a comparison
// sort posts, and the optimizer's cover estimate, must not drift when
// the kernel changes.
func TestCoverGroupsPinned(t *testing.T) {
	const want = uint64(0xc31aa489f712b709)
	if got := coverDigest(); got != want {
		t.Fatalf("cover digest = %#x, want %#x", got, want)
	}
}

// naiveCycles is the reference triangle count: the majority relation
// read straight from the [2]int-keyed tallies.
func naiveCycles(pairs map[[2]int]*PairVotes, n int) int {
	beats := func(a, b int) bool {
		k := pairKey(a, b)
		pv := pairs[k]
		if pv == nil {
			return false
		}
		if a == k[0] {
			return pv.IOverJ > pv.JOverI
		}
		return pv.JOverI > pv.IOverJ
	}
	count := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j || !beats(i, j) {
				continue
			}
			for k := 0; k < n; k++ {
				if k != i && k != j && beats(j, k) && beats(k, i) {
					count++
				}
			}
		}
	}
	return count / 3
}

func TestCountCyclesMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(30)
		r := &CompareResult{Pairs: map[[2]int]*PairVotes{}}
		// Sparse, tied and lopsided tallies all occur: some pairs are
		// never asked, some split evenly.
		density := rng.Float64()
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() > density {
					continue
				}
				r.Pairs[[2]int{i, j}] = &PairVotes{IOverJ: rng.Intn(4), JOverI: rng.Intn(4)}
			}
		}
		if got, want := r.countCycles(n), naiveCycles(r.Pairs, n); got != want {
			t.Fatalf("trial %d n=%d: countCycles = %d, naive = %d", trial, n, got, want)
		}
	}
}
