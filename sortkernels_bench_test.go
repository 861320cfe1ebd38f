package qurk

// Microbenchmarks for the comparison sort's dense kernels and the
// qualified-column lookup, the engine-side hot spots of a sort query:
//
//	go test -run '^$' -bench SortKernels -benchmem .

import (
	"fmt"
	"math/rand"
	"testing"

	"qurk/internal/hit"
	"qurk/internal/relation"
	"qurk/internal/sortop"
)

// BenchmarkSortKernels times the pair cover, the tally's head-to-head
// result and an unqualified column lookup on their own, apart from the
// simulator that dominates the query benchmarks.
func BenchmarkSortKernels(b *testing.B) {
	// The greedy pair cover the comparison sort posts one HIT per group
	// of, and the optimizer enumerates exactly up to 120 items.
	for _, n := range []int{40, 120} {
		b.Run(fmt.Sprintf("cover/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sortop.CoverGroups(n, 5)
			}
		})
	}
	// Head-to-head order and majority-cycle count over a 40-item tally
	// of five shuffled answers per group.
	b.Run("result/n=40", func(b *testing.B) {
		questions, tally, err := sortop.BuildCompare(NewSquares(40).Rel, SquareSorterTask(),
			sortop.CompareOptions{GroupSize: 5, Assignments: 5})
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		for _, q := range questions {
			for a := 0; a < 5; a++ {
				tally.Add(q.ID, hit.Answer{Order: rng.Perm(len(q.Items))})
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tally.Result()
		}
	})
	// An unqualified column read off a join-qualified row, as filters,
	// projections and oracles do per tuple.
	b.Run("get/qualified", func(b *testing.B) {
		schema := relation.MustSchema(
			relation.Column{Name: "s.label", Kind: relation.KindText},
			relation.Column{Name: "s.img", Kind: relation.KindURL},
			relation.Column{Name: "t.label", Kind: relation.KindText},
			relation.Column{Name: "t.img", Kind: relation.KindURL},
			relation.Column{Name: "t.score", Kind: relation.KindInt},
		)
		vals := make([]relation.Value, schema.Len())
		for i := range vals {
			vals[i] = relation.Int(int64(i))
		}
		t := relation.MustTuple(schema, vals...)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := t.Get("score"); !ok {
				b.Fatal("score not found")
			}
		}
	})
}
