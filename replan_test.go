package qurk

// Mid-run re-optimization (Options.Replan) and the observed-statistics
// feedback loop: a join whose POSSIBLY pass fraction turns out high
// switches NaiveBatch→SmartBatch after the probe prefix and posts
// fewer HITs; a sort group that materializes large switches
// Compare→Rate. Switch decisions read only count-based boundaries, so
// they are invariant to chunk sizing, and durable runs checkpoint them
// so kill/resume replays the same switch. Runs feed an obstats store
// whose history seeds the next run's plan at admission time.

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"qurk/internal/obstats"
)

// replanJoinCase is a feature-prefiltered join whose true POSSIBLY
// pass fraction (~0.5, same-gender pairs) makes per-pair NaiveBatch
// HITs far more expensive than grids for the surviving pairs.
func replanJoinCase(enabled bool, chunk int) durableCase {
	d := NewCelebrities(CelebrityConfig{N: 12, Seed: 7})
	cfg := DefaultMarketConfig(7)
	cfg.TrackPosts = true
	return durableCase{
		col: "name",
		query: `
SELECT c.name FROM celeb c JOIN photos p
ON samePerson(c.img, p.img)
AND POSSIBLY gender(c.img) = gender(p.img)
ORDER BY c.name`,
		newMarket: func() *SimMarket {
			return NewSimMarket(cfg, d.Oracle())
		},
		newClient: func(m Marketplace, journal string) *Client {
			opts := Options{JoinAlgorithm: NaiveJoin, JoinBatch: 2, StreamChunkHITs: chunk, Seed: 7}
			if enabled {
				opts.Replan = ReplanOptions{Enabled: true, ProbeTuples: 4}
			}
			return journaledClient(m, journal, opts, []*Relation{d.Celeb, d.Photos}, SamePersonTask(), GenderTask())
		},
	}
}

// replanSortCase is a single-group ORDER BY large enough that rating
// (ceil(n/batch) HITs) beats the comparison cover. minQuality gates
// the switch: rating's quality is cost.QualityRateSort = 0.78.
func replanSortCase(enabled bool, minQuality float64, chunk int) durableCase {
	sq := NewSquares(24)
	cfg := DefaultMarketConfig(5)
	cfg.TrackPosts = true
	return durableCase{
		col:   "label",
		query: `SELECT label FROM squares ORDER BY squareSorter(img)`,
		newMarket: func() *SimMarket {
			return NewSimMarket(cfg, sq.Oracle())
		},
		newClient: func(m Marketplace, journal string) *Client {
			opts := Options{StreamChunkHITs: chunk, Seed: 5}
			if enabled {
				opts.Replan = ReplanOptions{Enabled: true, MinQuality: minQuality}
			}
			return journaledClient(m, journal, opts, []*Relation{sq.Rel}, SquareSorterTask())
		},
	}
}

// runCase executes one case on a fresh tracking market and returns the
// result fingerprint and the posted-HIT log.
func runCase(t *testing.T, c durableCase) (string, []string) {
	t.Helper()
	m := c.newMarket()
	out, _, err := c.newClient(m, "").Run(context.Background(), c.query)
	if err != nil {
		t.Fatal(err)
	}
	return rowsOf(out, c.col), m.PostedHITs()
}

// TestReplanJoinSwitchCutsPostedHITs: with re-planning on, the join
// observes its true pass fraction after the probe prefix, switches the
// remaining pairs to grids, and posts strictly fewer HITs than the
// static NaiveBatch plan — returning the same rows.
func TestReplanJoinSwitchCutsPostedHITs(t *testing.T) {
	staticRows, staticPosted := runCase(t, replanJoinCase(false, 0))
	replanRows, replanPosted := runCase(t, replanJoinCase(true, 0))
	// A ≥20% cut only arises from the Naive→Smart switch: the plans are
	// otherwise identical, so this pins that the switch fired.
	if len(replanPosted)*5 > len(staticPosted)*4 {
		t.Fatalf("re-plan posted %d HITs, static %d — cut under 20%%", len(replanPosted), len(staticPosted))
	}
	if replanRows != staticRows {
		t.Errorf("re-planned rows diverge from static plan\ngot:\n%swant:\n%s", replanRows, staticRows)
	}
}

// TestReplanJoinDecisionChunkInvariant: the switch decision fires at a
// fixed probe-row boundary, so the posted-HIT multiset is identical at
// any StreamChunkHITs setting.
func TestReplanJoinDecisionChunkInvariant(t *testing.T) {
	baseRows, basePosted := runCase(t, replanJoinCase(true, 1))
	want := fmt.Sprint(sortedCopy(basePosted))
	for _, chunk := range []int{2, 7, 64} {
		rows, posted := runCase(t, replanJoinCase(true, chunk))
		if rows != baseRows {
			t.Errorf("chunk %d: rows diverge from chunk 1", chunk)
		}
		if got := fmt.Sprint(sortedCopy(posted)); got != want {
			t.Errorf("chunk %d: posted HITs diverge from chunk 1\ngot:  %v\nwant: %v", chunk, got, want)
		}
	}
}

// TestReplanSortSwitchCutsPostedHITs: a 24-row group under Compare
// needs a pairwise cover; with re-planning on (and a quality floor
// rating clears) the group switches to Rate and posts a fraction of
// the HITs. Rate orders by mean score, so row order may legitimately
// differ — membership must not.
func TestReplanSortSwitchCutsPostedHITs(t *testing.T) {
	staticRows, staticPosted := runCase(t, replanSortCase(false, 0, 0))
	replanRows, replanPosted := runCase(t, replanSortCase(true, 0.75, 0))
	if len(replanPosted) >= len(staticPosted) {
		t.Fatalf("re-plan posted %d HITs, static %d — no cut", len(replanPosted), len(staticPosted))
	}
	static := sortedCopy(strings.Split(strings.TrimSuffix(staticRows, "\n"), "\n"))
	replan := sortedCopy(strings.Split(strings.TrimSuffix(replanRows, "\n"), "\n"))
	if fmt.Sprint(static) != fmt.Sprint(replan) {
		t.Errorf("re-planned sort changed row membership\ngot:  %v\nwant: %v", replan, static)
	}
}

// TestReplanSortQualityFloorBlocksSwitch: a MinQuality above rating's
// 0.78 keeps the group on Compare — the run is bit-identical to the
// static plan.
func TestReplanSortQualityFloorBlocksSwitch(t *testing.T) {
	staticRows, staticPosted := runCase(t, replanSortCase(false, 0, 0))
	gatedRows, gatedPosted := runCase(t, replanSortCase(true, 0.9, 0))
	if gatedRows != staticRows {
		t.Error("quality-gated run rows diverge from static plan")
	}
	if fmt.Sprint(sortedCopy(gatedPosted)) != fmt.Sprint(sortedCopy(staticPosted)) {
		t.Errorf("quality-gated run posted different HITs\ngot:  %v\nwant: %v", gatedPosted, staticPosted)
	}
}

// TestReplanSortDecisionChunkInvariant mirrors the join invariance for
// the per-group Compare→Rate switch.
func TestReplanSortDecisionChunkInvariant(t *testing.T) {
	baseRows, basePosted := runCase(t, replanSortCase(true, 0.75, 1))
	want := fmt.Sprint(sortedCopy(basePosted))
	for _, chunk := range []int{3, 32} {
		rows, posted := runCase(t, replanSortCase(true, 0.75, chunk))
		if rows != baseRows {
			t.Errorf("chunk %d: rows diverge from chunk 1", chunk)
		}
		if got := fmt.Sprint(sortedCopy(posted)); got != want {
			t.Errorf("chunk %d: posted HITs diverge from chunk 1\ngot:  %v\nwant: %v", chunk, got, want)
		}
	}
}

// TestDurableReplanJoinKillAnyPointResume: the mid-query switch is
// checkpointed in the journal, so killing the run at any posting point
// and resuming replays the same switch — identical rows, no HIT
// posted twice.
func TestDurableReplanJoinKillAnyPointResume(t *testing.T) {
	killResumeEquivalence(t, replanJoinCase(true, 0), 5)
}

// TestDurableReplanSortKillAnyPointResume: same for the per-group
// Compare→Rate switch.
func TestDurableReplanSortKillAnyPointResume(t *testing.T) {
	killResumeEquivalence(t, replanSortCase(true, 0.75, 0), 2)
}

// TestStatsStoreFeedbackLoop: run one — attached to a fresh stats
// store — feeds its measured POSSIBLY pass fraction and match
// selectivity; run two's admission-time plan is seeded from that
// history (the hairColor prefilter prior is a factor ≥2 below the
// dataset's true pass fraction, so seeding visibly moves the plan).
func TestStatsStoreFeedbackLoop(t *testing.T) {
	store, err := OpenStatsStore(filepath.Join(t.TempDir(), "stats.qos"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	const query = `
SELECT c.name FROM celeb c JOIN photos p
ON samePerson(c.img, p.img)
AND POSSIBLY hairColor(c.img) = hairColor(p.img)`
	newClient := func(withStore bool) *Client {
		d, err := OpenDataset("celebrities", 16, 11)
		if err != nil {
			t.Fatal(err)
		}
		opts := []ClientOption{
			WithOptions(Options{JoinAlgorithm: NaiveJoin, Seed: 11}),
			WithDataset(d),
		}
		if withStore {
			opts = append(opts, WithStatsStore(store))
		}
		return NewClient(NewSimMarket(DefaultMarketConfig(11), d.Oracle), opts...)
	}

	freshPlan, err := newClient(false).Optimize(query, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := newClient(true).Run(context.Background(), query); err != nil {
		t.Fatal(err)
	}

	pass, weight, ok := store.Estimate("samePerson", obstats.KindPassFraction)
	if !ok || weight <= 0 {
		t.Fatalf("run fed no pass-fraction observation (ok=%v weight=%v)", ok, weight)
	}
	if pass <= 0 || pass > 1 {
		t.Fatalf("observed pass fraction %v out of range", pass)
	}
	if _, _, ok := store.Estimate("samePerson", obstats.KindSelectivity); !ok {
		t.Error("run fed no join-selectivity observation")
	}

	seededPlan, err := newClient(true).Optimize(query, 0)
	if err != nil {
		t.Fatal(err)
	}
	seeded := false
	for _, n := range seededPlan.Notes {
		if strings.Contains(n, "seeded from observed history") {
			seeded = true
		}
	}
	if !seeded {
		t.Errorf("seeded plan carries no seeding note:\n%s", seededPlan.Render())
	}
	if seededPlan.Render() == freshPlan.Render() {
		t.Errorf("observed history (pass fraction %.3f) left the plan unchanged:\n%s", pass, seededPlan.Render())
	}
	for _, n := range freshPlan.Notes {
		if strings.Contains(n, "seeded from observed history") {
			t.Error("unseeded plan claims observed history")
		}
	}
}

// TestExplainShowsObservedStats: Explain with a run's actuals renders
// the observed pass fraction and selectivity next to the estimates —
// the §6 estimate/run/compare loop closed over measured statistics.
func TestExplainShowsObservedStats(t *testing.T) {
	d, err := OpenDataset("celebrities", 10, 13)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(NewSimMarket(DefaultMarketConfig(13), d.Oracle), Options{JoinAlgorithm: NaiveJoin, Seed: 13})
	eng.Catalog = d.Catalog
	eng.Library = d.Library
	const query = `
SELECT c.name FROM celeb c JOIN photos p
ON samePerson(c.img, p.img)
AND POSSIBLY gender(c.img) = gender(p.img)`
	_, stats, err := runQuery(eng, query)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.ObservedStats()) == 0 {
		t.Fatal("run recorded no observed statistics")
	}
	rendered, err := Explain(eng, query, ExplainOptions{Actual: stats})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rendered, "obs pass") {
		t.Errorf("explain output lacks observed pass fraction:\n%s", rendered)
	}
	if !strings.Contains(rendered, "obs sel") {
		t.Errorf("explain output lacks observed selectivity:\n%s", rendered)
	}
}
