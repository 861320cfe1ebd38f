package exec

// Tests for the assignment-timeout (expiry) policy: a worker accepts a
// HIT and never submits it, the marketplace reports the assignment
// expired at the deadline, and the streaming operators re-post the
// HIT's questions — with lineage-derived HIT IDs and only the missing
// assignment count — up to Options.ExpiredRetries deep, merging the
// partial votes collected before the expiry with the retry's.

import (
	"strings"
	"testing"

	"qurk/internal/core"
	"qurk/internal/crowd"
	"qurk/internal/dataset"
	"qurk/internal/join"
)

// abandoningMarket returns a simulator in which each sampled worker
// abandons their assignment with the given probability.
func abandoningMarket(seed int64, oracle crowd.Oracle, prob float64) *crowd.SimMarket {
	cfg := crowd.DefaultConfig(seed)
	cfg.AbandonProb = prob
	return crowd.NewSimMarket(cfg, oracle)
}

// TestExpiredFilterRepostsMissingAssignments: with a third of all
// assignments abandoned, the filter still answers every tuple — expired
// HITs are re-posted for the missing votes — and the expiry shows up in
// Stats.
func TestExpiredFilterRepostsMissingAssignments(t *testing.T) {
	d := dataset.NewCelebrities(dataset.CelebrityConfig{N: 20, Seed: 5})
	e := core.NewEngine(abandoningMarket(5, d.Oracle(), 0.3), core.Options{})
	e.Catalog.Register(d.Celeb)
	e.Library.MustRegister(dataset.IsFemaleTask())

	out, stats, err := runQuery(e, `SELECT c.name FROM celeb c WHERE isFemale(c.img)`)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 {
		t.Fatal("every tuple rejected under abandonment: expiry policy inactive")
	}
	if stats.TotalExpired() == 0 {
		t.Error("AbandonProb = 0.3 produced no Stats expired count")
	}
	// 20 tuples at batch 5 = 4 original HITs; expiry re-posts add more.
	if stats.TotalHITs() <= 4 {
		t.Errorf("TotalHITs = %d, want > 4 (originals plus expiry re-posts)", stats.TotalHITs())
	}
	if len(stats.Incomplete) != 0 {
		t.Errorf("partial votes plus retries should leave nothing incomplete: %v", stats.Incomplete)
	}
}

// TestExpiryRetriesDisabled: ExpiredRetries = -1 resolves every
// question with whatever votes arrived before the deadline — fewer
// votes, no re-posts.
func TestExpiryRetriesDisabled(t *testing.T) {
	run := func(retries int) (int, int) {
		d := dataset.NewCelebrities(dataset.CelebrityConfig{N: 20, Seed: 5})
		e := core.NewEngine(abandoningMarket(5, d.Oracle(), 0.3), core.Options{ExpiredRetries: retries})
		e.Catalog.Register(d.Celeb)
		e.Library.MustRegister(dataset.IsFemaleTask())
		_, stats, err := runQuery(e, `SELECT c.name FROM celeb c WHERE isFemale(c.img)`)
		if err != nil {
			t.Fatal(err)
		}
		return stats.TotalHITs(), stats.TotalExpired()
	}
	offHITs, offExpired := run(-1)
	onHITs, _ := run(0) // 0 = default budget
	if offExpired == 0 {
		t.Fatal("abandonment inactive")
	}
	if offHITs != 4 {
		t.Errorf("with retries disabled the filter posts exactly its 4 original HITs, got %d", offHITs)
	}
	if onHITs <= offHITs {
		t.Errorf("expiry retries must add re-posted HITs: %d (on) vs %d (off)", onHITs, offHITs)
	}
}

// TestExpiryExhaustIncomplete: when every assignment of every post is
// abandoned, the retry budget bounds the spend and the voteless
// questions surface in Stats.Incomplete instead of silently rejecting.
func TestExpiryExhaustIncomplete(t *testing.T) {
	d := dataset.NewCelebrities(dataset.CelebrityConfig{N: 10, Seed: 6})
	e := core.NewEngine(abandoningMarket(6, d.Oracle(), 1.0), core.Options{})
	e.Catalog.Register(d.Celeb)
	e.Library.MustRegister(dataset.IsFemaleTask())

	out, stats, err := runQuery(e, `SELECT c.name FROM celeb c WHERE isFemale(c.img)`)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Errorf("no assignment ever completes, got %d rows", out.Len())
	}
	if len(stats.Incomplete) == 0 {
		t.Error("exhausted-expiry questions must appear in Stats.Incomplete")
	}
	for _, id := range stats.Incomplete {
		if !strings.Contains(id, "filter/isFemale") {
			t.Errorf("incomplete entry %q does not name the filter's questions", id)
		}
	}
	// Original 2 batch-5 HITs plus ExpiredRetries=2 re-posts each.
	if want := 2 * (1 + 2); stats.TotalHITs() != want {
		t.Errorf("TotalHITs = %d, want %d (bounded by the expiry budget)", stats.TotalHITs(), want)
	}
}

// TestExpiryChunkSizeInvariance: re-posted HIT IDs derive from the
// expired HIT's lineage, never the shared builder, and carried partial
// votes merge in lineage order — so results stay bit-identical across
// StreamChunkHITs/lookahead settings even when assignments expire
// (the acceptance bar mirroring TestRetryChunkSizeInvariance).
func TestExpiryChunkSizeInvariance(t *testing.T) {
	run := func(chunk, lookahead int) (string, int, int) {
		d := dataset.NewCelebrities(dataset.CelebrityConfig{N: 40, Seed: 8})
		e := core.NewEngine(abandoningMarket(8, d.Oracle(), 0.35),
			core.Options{StreamChunkHITs: chunk, StreamLookahead: lookahead})
		e.Catalog.Register(d.Celeb)
		e.Library.MustRegister(dataset.IsFemaleTask())
		out, stats, err := runQuery(e, `SELECT c.name FROM celeb c WHERE isFemale(c.img)`)
		if err != nil {
			t.Fatal(err)
		}
		var names strings.Builder
		for i := 0; i < out.Len(); i++ {
			names.WriteString(out.Row(i).MustGet("name").String())
			names.WriteByte('\n')
		}
		return names.String(), stats.TotalHITs(), stats.TotalExpired()
	}
	baseRows, baseHITs, baseExpired := run(8, 2)
	if baseRows == "" {
		t.Fatal("abandoning run returned nothing; expiry policy inactive")
	}
	if baseExpired == 0 {
		t.Fatal("no expirations at AbandonProb = 0.35; test exercises nothing")
	}
	for _, cfg := range [][2]int{{1, 2}, {3, 1}, {16, 4}} {
		rows, hits, expired := run(cfg[0], cfg[1])
		if rows != baseRows {
			t.Errorf("chunk=%d lookahead=%d: result rows differ from chunk=8 baseline", cfg[0], cfg[1])
		}
		if hits != baseHITs {
			t.Errorf("chunk=%d lookahead=%d: %d HITs vs baseline %d", cfg[0], cfg[1], hits, baseHITs)
		}
		if expired != baseExpired {
			t.Errorf("chunk=%d lookahead=%d: %d expired vs baseline %d", cfg[0], cfg[1], expired, baseExpired)
		}
	}
}

// TestExpiryMakespanAtDeadline: an expiry is only observable at the
// assignment deadline, so an abandoning run's pipeline makespan is
// floored by it while a clean run finishes far earlier.
func TestExpiryMakespanAtDeadline(t *testing.T) {
	run := func(prob float64) float64 {
		d := dataset.NewCelebrities(dataset.CelebrityConfig{N: 40, Seed: 8})
		e := core.NewEngine(abandoningMarket(8, d.Oracle(), prob), core.Options{})
		e.Catalog.Register(d.Celeb)
		e.Library.MustRegister(dataset.IsFemaleTask())
		_, stats, err := runQuery(e, `SELECT c.name FROM celeb c WHERE isFemale(c.img)`)
		if err != nil {
			t.Fatal(err)
		}
		return stats.PipelineMakespanHours
	}
	expiring, clean := run(0.3), run(0)
	if expiring <= clean {
		t.Errorf("expiry round trips must extend the makespan: %.3fh vs clean %.3fh", expiring, clean)
	}
	if expiring < 2 {
		t.Errorf("expiring makespan %.3fh below the 2h assignment deadline it must wait for", expiring)
	}
}

// TestExpiredJoinRetries: the join path re-posts expired pair batches
// too, with votes accumulating across the lineage in the pair slots.
func TestExpiredJoinRetries(t *testing.T) {
	d := dataset.NewCelebrities(dataset.CelebrityConfig{N: 6, Seed: 7})
	e := core.NewEngine(abandoningMarket(7, d.Oracle(), 0.3),
		core.Options{JoinAlgorithm: join.Naive, JoinBatch: 5})
	e.Catalog.Register(d.Celeb)
	e.Catalog.Register(d.Photos)
	e.Library.MustRegister(dataset.SamePersonTask())

	out, stats, err := runQuery(e, `SELECT c.name FROM celeb c JOIN photos p ON samePerson(c.img, p.img)`)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 {
		t.Fatal("join emptied by expirations: expiry policy not applied on the join path")
	}
	if stats.TotalExpired() == 0 {
		t.Error("join run reported no expired assignments at AbandonProb = 0.3")
	}
	if len(stats.Incomplete) != 0 {
		t.Errorf("unexpected incompletes: %v", stats.Incomplete)
	}
}
