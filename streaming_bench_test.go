package qurk

// Benchmarks for the fully pipelined crowd operators: streaming
// POSSIBLY-feature extraction through the chunked poster (extraction
// HITs stop when a LIMIT closes the pipeline, and the pipelined
// makespan beats the materializing baseline) and the bounded-memory
// spill paths (external sort, partitioned join build). The headline
// quantities are custom metrics; ns/op and the -benchmem counters
// measure the engine itself.

import (
	"fmt"
	"testing"
)

func featureJoinEngine(chunk, breakerCap int, n int) (*Engine, string) {
	d := NewCelebrities(CelebrityConfig{N: n, Seed: 41})
	m := NewSimMarket(DefaultMarketConfig(41), d.Oracle())
	e := NewEngine(m, Options{
		JoinAlgorithm: NaiveJoin, JoinBatch: 5,
		StreamChunkHITs: chunk, BreakerMemTuples: breakerCap, Seed: 41,
	})
	e.Catalog.Register(d.Celeb)
	e.Catalog.Register(d.Photos)
	e.Library.MustRegister(IsFemaleTask())
	e.Library.MustRegister(SamePersonTask())
	e.Library.MustRegister(GenderTask())
	return e, `
SELECT c.name FROM celeb c JOIN photos p
ON samePerson(c.img, p.img)
AND POSSIBLY gender(c.img) = gender(p.img)
WHERE isFemale(c.img)`
}

// extractionHITs sums the probe-side extraction operator's HIT count.
func extractionHITs(stats *ExecStats) float64 {
	n := 0
	for _, op := range stats.Operators {
		if op.Label == "extract-left" {
			n += op.HITs
		}
	}
	return float64(n)
}

// BenchmarkStreamedExtractionMakespan pins the streaming-extraction
// win: a POSSIBLY-feature join with LIMIT posts strictly fewer
// probe-side extraction HITs than the materializing path (which
// extracts the whole table before the first pair HIT), and the
// end-to-end pipelined makespan beats the materializing baseline.
func BenchmarkStreamedExtractionMakespan(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eS, src := featureJoinEngine(2, 0, 120)
		_, streamed, err := runQuery(eS, src+` LIMIT 3`)
		if err != nil {
			b.Fatal(err)
		}
		eM, _ := featureJoinEngine(1<<20, 0, 120)
		_, mono, err := runQuery(eM, src+` LIMIT 3`)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			if extractionHITs(streamed) >= extractionHITs(mono) {
				b.Fatalf("streamed extraction posted %v HITs, materializing %v — no short-circuit",
					extractionHITs(streamed), extractionHITs(mono))
			}
			b.ReportMetric(extractionHITs(streamed), "streamed_extract_HITs")
			b.ReportMetric(extractionHITs(mono), "materialized_extract_HITs")
			b.ReportMetric(float64(streamed.TotalHITs()), "streamed_total_HITs")
			b.ReportMetric(float64(mono.TotalHITs()), "materialized_total_HITs")
			b.ReportMetric(streamed.PipelineMakespanHours, "streamed_makespan_h")
			b.ReportMetric(mono.PipelineMakespanHours, "materialized_makespan_h")
			if streamed.PipelineMakespanHours > 0 {
				b.ReportMetric(mono.PipelineMakespanHours/streamed.PipelineMakespanHours, "makespan_speedup_x")
			}
		}
	}
}

// BenchmarkSpillExternalSort measures the bounded-memory machine sort:
// the same ORDER BY with and without a BreakerMemTuples cap, asserting
// identical output while -benchmem pins the footprint difference.
func BenchmarkSpillExternalSort(b *testing.B) {
	run := func(cap int) string {
		d := NewCelebrities(CelebrityConfig{N: 300, Seed: 43})
		m := NewSimMarket(DefaultMarketConfig(43), d.Oracle())
		e := NewEngine(m, Options{BreakerMemTuples: cap, Seed: 43})
		e.Catalog.Register(d.Celeb)
		out, _, err := runQuery(e, `SELECT c.name FROM celeb c ORDER BY c.name`)
		if err != nil {
			b.Fatal(err)
		}
		return fmt.Sprint(out)
	}
	for i := 0; i < b.N; i++ {
		spilled := run(32)
		if i == 0 {
			if inMem := run(0); inMem != spilled {
				b.Fatal("spilled sort diverged from in-memory sort")
			}
			b.ReportMetric(32, "breaker_mem_tuples")
		}
	}
}

// BenchmarkSpillJoinBuild measures the partitioned join build side:
// a crowd join whose build side spills at 16 tuples, bit-identical to
// the in-memory build.
func BenchmarkSpillJoinBuild(b *testing.B) {
	run := func(cap int) (string, *ExecStats) {
		d := NewCelebrities(CelebrityConfig{N: 24, Seed: 45})
		m := NewSimMarket(DefaultMarketConfig(45), d.Oracle())
		e := NewEngine(m, Options{JoinAlgorithm: NaiveJoin, JoinBatch: 5, BreakerMemTuples: cap, Seed: 45})
		e.Catalog.Register(d.Celeb)
		e.Catalog.Register(d.Photos)
		e.Library.MustRegister(SamePersonTask())
		out, stats, err := runQuery(e, `SELECT c.name FROM celeb c JOIN photos p ON samePerson(c.img, p.img)`)
		if err != nil {
			b.Fatal(err)
		}
		return fmt.Sprint(out), stats
	}
	for i := 0; i < b.N; i++ {
		spilled, stats := run(16)
		if i == 0 {
			inMem, memStats := run(0)
			if inMem != spilled {
				b.Fatal("spilled join diverged from in-memory join")
			}
			if stats.TotalHITs() != memStats.TotalHITs() {
				b.Fatalf("HITs differ: %d spilled vs %d in-memory", stats.TotalHITs(), memStats.TotalHITs())
			}
			b.ReportMetric(float64(stats.TotalHITs()), "HITs")
		}
	}
}
