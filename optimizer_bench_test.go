package qurk

// Optimizer benchmarks: the planner pass must stay cheap relative to
// the crowd work it prices. These feed BENCH_baseline.json so the
// cmd/bench -compare gate covers planning-time regressions.

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

func benchEngine(b *testing.B, n int) *Engine {
	b.Helper()
	d := NewCelebrities(CelebrityConfig{N: n, Seed: 1})
	eng := NewEngine(NewSimMarket(DefaultMarketConfig(1), d.Oracle()), Options{})
	eng.Catalog.Register(d.Celeb)
	eng.Catalog.Register(d.Photos)
	eng.Library.MustRegister(IsFemaleTask())
	eng.Library.MustRegister(SamePersonTask())
	eng.Library.MustRegister(GenderTask())
	eng.Library.MustRegister(HairColorTask())
	eng.Library.MustRegister(SkinColorTask())
	return eng
}

// BenchmarkOptimizerJoinPlan prices the celebrity join's full
// alternative space (3 algorithms × shapes × prefilter on/off).
func BenchmarkOptimizerJoinPlan(b *testing.B) {
	eng := benchEngine(b, 30)
	src := `SELECT c.name FROM celeb c JOIN photos p ON samePerson(c.img, p.img)
AND POSSIBLY gender(c.img) = gender(p.img)
AND POSSIBLY hairColor(c.img) = hairColor(p.img)
AND POSSIBLY skinColor(c.img) = skinColor(p.img)`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp, err := Optimize(eng, src, 10)
		if err != nil {
			b.Fatal(err)
		}
		if cp.TotalHITs == 0 {
			b.Fatal("empty estimate")
		}
	}
}

// BenchmarkOptimizerSortPlan prices the sort alternatives including
// the exact comparison group cover at 40 items.
func BenchmarkOptimizerSortPlan(b *testing.B) {
	sq := NewSquares(40)
	eng := NewEngine(NewSimMarket(DefaultMarketConfig(2), sq.Oracle()), Options{})
	eng.Catalog.Register(sq.Rel)
	eng.Library.MustRegister(SquareSorterTask())
	src := `SELECT label FROM squares ORDER BY squareSorter(img)`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Optimize(eng, src, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizerExplain renders the full costed plan for a mixed
// filter + join + budget query — the interactive EXPLAIN path.
func BenchmarkOptimizerExplain(b *testing.B) {
	eng := benchEngine(b, 30)
	src := `SELECT c.name FROM celeb c JOIN photos p ON samePerson(c.img, p.img) WHERE isFemale(c.img)`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := Explain(eng, src, ExplainOptions{BudgetDollars: 5})
		if err != nil {
			b.Fatal(err)
		}
		if len(out) == 0 {
			b.Fatal("empty explain")
		}
	}
}

// BenchmarkOptimizedQueryRun runs an optimizer-annotated celebrity
// join end to end on the simulator, reporting the chosen plan's cost.
func BenchmarkOptimizedQueryRun(b *testing.B) {
	src := `SELECT c.name FROM celeb c JOIN photos p ON samePerson(c.img, p.img)`
	var hits int
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng := benchEngine(b, 20)
		cp, err := Optimize(eng, src, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		_, stats, err := RunPlan(context.Background(), eng, cp.Root, nil)
		if err != nil {
			b.Fatal(err)
		}
		hits = stats.TotalHITs()
	}
	b.ReportMetric(float64(hits), "HITs")
}

// TestExplainEstVsActual closes the §6 loop at the facade: optimize,
// run, and render estimated vs actual HITs per operator.
func TestExplainEstVsActual(t *testing.T) {
	d := NewCelebrities(CelebrityConfig{N: 20, Seed: 4})
	eng := NewEngine(NewSimMarket(DefaultMarketConfig(4), d.Oracle()), Options{})
	eng.Catalog.Register(d.Celeb)
	eng.Library.MustRegister(IsFemaleTask())
	src := `SELECT c.name FROM celeb c WHERE isFemale(c.img)`

	cp, err := Optimize(eng, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := RunPlan(context.Background(), eng, cp.Root, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Explain(eng, src, ExplainOptions{Actual: stats})
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("actual %d HITs", stats.TotalHITs())
	if !strings.Contains(out, want) {
		t.Errorf("explain missing %q:\n%s", want, out)
	}
	if !strings.Contains(out, "est 4 HITs") {
		t.Errorf("explain missing estimate:\n%s", out)
	}
}
