package exec

// Tests for crowd sorts through the chunked poster: sort rounds now
// inherit the refusal and expiry retry policies (previously they
// posted one blocking group and silently accepted partial votes) and
// stay bit-identical across chunk settings.

import (
	"fmt"
	"strings"
	"testing"

	"qurk/internal/core"
	"qurk/internal/crowd"
	"qurk/internal/dataset"
)

func squaresEngine(n int, m func(crowd.Oracle) crowd.Marketplace, opts core.Options) *core.Engine {
	s := dataset.NewSquares(n)
	e := core.NewEngine(m(s.Oracle()), opts)
	e.Catalog.Register(s.Rel)
	e.Library.MustRegister(dataset.SquareSorterTask())
	return e
}

const sortQuery = `SELECT label FROM squares ORDER BY squareSorter(img)`

// TestSortExpiryRetries: expired comparison assignments re-post with
// lineage IDs; the sort still settles and the expiry shows in Stats.
func TestSortExpiryRetries(t *testing.T) {
	cfg := crowd.DefaultConfig(11)
	cfg.AbandonProb = 0.3
	e := squaresEngine(15, func(o crowd.Oracle) crowd.Marketplace { return crowd.NewSimMarket(cfg, o) },
		core.Options{SortMethod: core.SortCompare, CompareGroupSize: 5})
	out, stats, err := runQuery(e, sortQuery)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 15 {
		t.Fatalf("rows = %d, want 15", out.Len())
	}
	if stats.TotalExpired() == 0 {
		t.Error("AbandonProb = 0.3 produced no expired sort assignments")
	}
	if len(stats.Incomplete) != 0 {
		t.Errorf("partial votes plus retries should leave nothing incomplete: %v", stats.Incomplete)
	}
}

// TestSortRefusalRetries: refused rating HITs (batch too effortful)
// re-post at half batch — the sort answers instead of silently ranking
// on zero votes. Comparison HITs are single-question and cannot
// shrink; their exhaustion shows in Stats.Incomplete.
func TestSortRefusalRetries(t *testing.T) {
	cfg := crowd.DefaultConfig(13)
	cfg.RefusalEffort = 3 // batch-5 rating HITs exceed this; halves pass
	e := squaresEngine(12, func(o crowd.Oracle) crowd.Marketplace { return crowd.NewSimMarket(cfg, o) },
		core.Options{SortMethod: core.SortRate})
	out, stats, err := runQuery(e, sortQuery)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 12 {
		t.Fatalf("rows = %d, want 12", out.Len())
	}
	if len(stats.Incomplete) != 0 {
		t.Errorf("retried rating questions should not be incomplete: %v", stats.Incomplete)
	}
	// ceil(12/5) = 3 original HITs; refusal re-posts add more.
	if stats.TotalHITs() <= 3 {
		t.Errorf("TotalHITs = %d, want > 3 (refused originals plus retries)", stats.TotalHITs())
	}
}

// TestSortChunkInvariance: sort results and HIT counts are
// bit-identical across StreamChunkHITs/lookahead settings, including
// under expirations.
func TestSortChunkInvariance(t *testing.T) {
	run := func(chunk, lookahead int, abandon float64) string {
		cfg := crowd.DefaultConfig(11)
		cfg.AbandonProb = abandon
		e := squaresEngine(15, func(o crowd.Oracle) crowd.Marketplace { return crowd.NewSimMarket(cfg, o) }, core.Options{
			SortMethod: core.SortCompare, CompareGroupSize: 5,
			StreamChunkHITs: chunk, StreamLookahead: lookahead,
		})
		rows, stats := runRows(t, e, sortQuery)
		return fmt.Sprintf("%s|hits=%d|expired=%d", rows, stats.TotalHITs(), stats.TotalExpired())
	}
	for _, abandon := range []float64{0, 0.3} {
		base := run(8, 2, abandon)
		if !strings.Contains(base, "square-") {
			t.Fatalf("abandon=%v: no rows:\n%s", abandon, base)
		}
		for _, cfg := range [][2]int{{1, 2}, {3, 1}, {16, 4}} {
			if got := run(cfg[0], cfg[1], abandon); got != base {
				t.Errorf("abandon=%v chunk=%d lookahead=%d diverged:\n--- base\n%s--- got\n%s",
					abandon, cfg[0], cfg[1], base, got)
			}
		}
	}
}

// TestHybridSeedThroughPoster: the hybrid sort's rating seed posts
// through the poster (its Stats slot appears) and the full hybrid
// still orders the list.
func TestHybridSeedThroughPoster(t *testing.T) {
	e := squaresEngine(12, func(o crowd.Oracle) crowd.Marketplace { return crowd.NewSimMarket(crowd.DefaultConfig(7), o) },
		core.Options{SortMethod: core.SortHybrid, HybridIterations: 6})
	out, stats, err := runQuery(e, sortQuery)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 12 {
		t.Fatalf("rows = %d, want 12", out.Len())
	}
	seed, iter := false, false
	for _, op := range stats.Operators {
		if strings.Contains(op.Label, "[rate seed]") && op.HITs > 0 {
			seed = true
		}
		if strings.HasPrefix(op.Label, "CrowdOrderBy") && !strings.Contains(op.Label, "rate seed") && op.HITs > 0 {
			iter = true
		}
	}
	if !seed {
		t.Errorf("hybrid rate seed not accounted through the poster: %+v", stats.Operators)
	}
	if !iter {
		t.Errorf("hybrid iteration HITs not accounted: %+v", stats.Operators)
	}
}
