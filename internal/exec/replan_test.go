package exec

import (
	"testing"

	"qurk/internal/answerstore"
	"qurk/internal/core"
	"qurk/internal/crowd"
	"qurk/internal/dataset"
	"qurk/internal/join"
	"qurk/internal/obstats"
)

// replanJoinEngine builds a feature-prefiltered NaiveBatch join
// workload whose true POSSIBLY pass fraction (~0.5) makes grids
// cheaper for the surviving pairs.
func replanJoinEngine(opts core.Options) *core.Engine {
	d := dataset.NewCelebrities(dataset.CelebrityConfig{N: 12, Seed: 7})
	m := crowd.NewSimMarket(crowd.DefaultConfig(7), d.Oracle())
	e := core.NewEngine(m, opts)
	e.Catalog.Register(d.Celeb)
	e.Catalog.Register(d.Photos)
	e.Library.MustRegister(dataset.SamePersonTask())
	e.Library.MustRegister(dataset.GenderTask())
	return e
}

const replanJoinQuery = `
SELECT c.name FROM celeb c JOIN photos p
ON samePerson(c.img, p.img)
AND POSSIBLY gender(c.img) = gender(p.img)`

// TestJoinReplanSwitchesToGrids: once the probe prefix reveals the
// true pass fraction, the remaining pairs post as grids and the run
// spends fewer HITs than the static NaiveBatch plan. The run's
// observed statistics carry the measured pass fraction.
func TestJoinReplanSwitchesToGrids(t *testing.T) {
	static := replanJoinEngine(core.Options{JoinAlgorithm: join.Naive, JoinBatch: 2, Seed: 7})
	_, sstats, err := runQuery(static, replanJoinQuery)
	if err != nil {
		t.Fatal(err)
	}
	adaptive := replanJoinEngine(core.Options{
		JoinAlgorithm: join.Naive, JoinBatch: 2, Seed: 7,
		Replan: core.ReplanOptions{Enabled: true, ProbeTuples: 4},
	})
	_, astats, err := runQuery(adaptive, replanJoinQuery)
	if err != nil {
		t.Fatal(err)
	}
	if astats.TotalHITs() >= sstats.TotalHITs() {
		t.Fatalf("re-plan posted %d HITs, static %d — no cut", astats.TotalHITs(), sstats.TotalHITs())
	}
	var passObserved bool
	for _, ob := range astats.ObservedStats() {
		if ob.Kind == obstats.KindPassFraction {
			passObserved = true
			if ob.Value <= 0 || ob.Value > 1 || ob.Weight <= 0 {
				t.Errorf("pass-fraction observation out of range: %+v", ob)
			}
		}
	}
	if !passObserved {
		t.Error("run recorded no pass-fraction observation")
	}
}

// TestJoinReplanKeepsNaiveUnderQualityFloor: a MinQuality above the
// grid interface's estimated quality vetoes the switch — the adaptive
// run is HIT-for-HIT the static plan.
func TestJoinReplanKeepsNaiveUnderQualityFloor(t *testing.T) {
	static := replanJoinEngine(core.Options{JoinAlgorithm: join.Naive, JoinBatch: 2, Seed: 7})
	_, sstats, err := runQuery(static, replanJoinQuery)
	if err != nil {
		t.Fatal(err)
	}
	gated := replanJoinEngine(core.Options{
		JoinAlgorithm: join.Naive, JoinBatch: 2, Seed: 7,
		Replan: core.ReplanOptions{Enabled: true, ProbeTuples: 4, MinQuality: 0.93},
	})
	_, gstats, err := runQuery(gated, replanJoinQuery)
	if err != nil {
		t.Fatal(err)
	}
	if gstats.TotalHITs() != sstats.TotalHITs() {
		t.Errorf("quality-gated run posted %d HITs, static %d — floor did not hold",
			gstats.TotalHITs(), sstats.TotalHITs())
	}
}

// sortEngine builds a single-group 24-row ORDER BY workload.
func sortEngine(opts core.Options) *core.Engine {
	sq := dataset.NewSquares(24)
	m := crowd.NewSimMarket(crowd.DefaultConfig(5), sq.Oracle())
	e := core.NewEngine(m, opts)
	e.Catalog.Register(sq.Rel)
	e.Library.MustRegister(dataset.SquareSorterTask())
	return e
}

const replanSortQuery = `SELECT label FROM squares ORDER BY squareSorter(img)`

// TestSortReplanSwitchesToRate: the materialized group's true size
// makes rating strictly cheaper than the comparison cover; with the
// quality floor below rating's 0.78 the group switches and the run
// posts a fraction of the HITs. A floor above 0.78 blocks the switch.
func TestSortReplanSwitchesToRate(t *testing.T) {
	_, sstats, err := runQuery(sortEngine(core.Options{Seed: 5}), replanSortQuery)
	if err != nil {
		t.Fatal(err)
	}
	out, astats, err := runQuery(sortEngine(core.Options{
		Seed:   5,
		Replan: core.ReplanOptions{Enabled: true, MinQuality: 0.75},
	}), replanSortQuery)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 24 {
		t.Fatalf("re-planned sort returned %d rows, want 24", out.Len())
	}
	if astats.TotalHITs() >= sstats.TotalHITs() {
		t.Fatalf("re-plan posted %d HITs, static %d — no cut", astats.TotalHITs(), sstats.TotalHITs())
	}
	_, gstats, err := runQuery(sortEngine(core.Options{
		Seed:   5,
		Replan: core.ReplanOptions{Enabled: true, MinQuality: 0.9},
	}), replanSortQuery)
	if err != nil {
		t.Fatal(err)
	}
	if gstats.TotalHITs() != sstats.TotalHITs() {
		t.Errorf("quality-gated sort posted %d HITs, static %d — floor did not hold",
			gstats.TotalHITs(), sstats.TotalHITs())
	}
	var groupObserved bool
	for _, ob := range astats.ObservedStats() {
		if ob.Kind == obstats.KindGroupSize && ob.Value == 24 {
			groupObserved = true
		}
	}
	if !groupObserved {
		t.Error("run recorded no group-size observation of 24")
	}
}

// TestObservationsFeedEngineStore: with Engine.ObStats attached, a
// run's measured filter selectivity, worker agreement, and latency
// land in the store under the task's name.
func TestObservationsFeedEngineStore(t *testing.T) {
	store, err := obstats.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	d := dataset.NewCelebrities(dataset.CelebrityConfig{N: 20, Seed: 9})
	m := crowd.NewSimMarket(crowd.DefaultConfig(9), d.Oracle())
	e := core.NewEngine(m, core.Options{Seed: 9})
	e.ObStats = store
	e.Catalog.Register(d.Celeb)
	e.Library.MustRegister(dataset.IsFemaleTask())
	if _, _, err := runQuery(e, `SELECT c.name FROM celeb AS c WHERE isFemale(c.img)`); err != nil {
		t.Fatal(err)
	}
	sel, w, ok := store.Estimate("isFemale", obstats.KindSelectivity)
	if !ok || w <= 0 {
		t.Fatalf("no selectivity observation (ok=%v weight=%v)", ok, w)
	}
	if sel <= 0 || sel >= 1 {
		t.Errorf("observed selectivity %v outside (0,1)", sel)
	}
	if _, _, ok := store.Estimate("isFemale", obstats.KindAgreement); !ok {
		t.Error("no worker-agreement observation")
	}
	if _, _, ok := store.Estimate("isFemale", obstats.KindLatencyHours); !ok {
		t.Error("no latency observation")
	}
}

// TestReplanGridsServeFromAnswerStore: with a shared answer store, a
// second identical re-planned run makes the same switch and serves its
// pair and tail-grid questions from the store — posting nothing.
func TestReplanGridsServeFromAnswerStore(t *testing.T) {
	store, err := answerstore.Open("", answerstore.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	opts := core.Options{
		JoinAlgorithm: join.Naive, JoinBatch: 2, Seed: 7,
		Replan: core.ReplanOptions{Enabled: true, ProbeTuples: 4},
	}
	run := func() (string, *Stats) {
		e := replanJoinEngine(opts)
		e.Answers = store
		return runRows(t, e, replanJoinQuery)
	}
	firstRows, first := run()
	if first.TotalHITs() == 0 {
		t.Fatal("first run posted nothing; store-serve test exercises nothing")
	}
	secondRows, second := run()
	if second.TotalHITs() != 0 {
		t.Errorf("second run posted %d HITs, want 0 (all served from the store)", second.TotalHITs())
	}
	if secondRows != firstRows {
		t.Error("store-served run rows diverge from the posting run")
	}
}
