package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"qurk"
	"qurk/internal/crowd"
	"qurk/internal/dataset"
	"qurk/internal/exec"
	"qurk/internal/plan"
	"qurk/internal/query"
	"qurk/internal/relation"
)

// The paper's three query shapes, sized so one query takes a few
// milliseconds and a run holds thousands of them.
const (
	// celebJoinSrc is §3: a celebrity join pruned by POSSIBLY feature
	// filters, with a crowd WHERE filter on the left table.
	celebJoinSrc = `SELECT c.name, p.id FROM celeb c JOIN photos p
ON samePerson(c.img, p.img)
AND POSSIBLY gender(c.img) = gender(p.img)
AND POSSIBLY hairColor(c.img) = hairColor(p.img)
AND POSSIBLY skinColor(c.img) = skinColor(p.img)
WHERE isFemale(c.img)`
	// squareSortSrc is §4: a crowd ORDER BY over squares.
	squareSortSrc = `SELECT label FROM squares ORDER BY squareSorter(img)`
	// movieSrc is §5: join, POSSIBLY filter and ORDER BY together.
	movieSrc = `SELECT name, scenes.img FROM actors JOIN scenes
ON inScene(actors.img, scenes.img)
AND POSSIBLY numInScene(scenes.img) = 1
ORDER BY name, quality(scenes.img)`

	celebCount   = 40
	squareCount  = 40
	movieScenes  = 60
	movieActors  = 5
	perShape     = 48 // instances of each shape in the pool
	warmupPasses = 1
)

// instance is one generated query: a dataset, the client that queries
// it, and the reference its every run must reproduce.
type instance struct {
	kind    string
	src     string
	bundle  *qurk.DatasetBundle
	seed    int64
	quality func(rows []relation.Tuple) float64

	// live is the market the timed loop queries: the simulator or a
	// replay of the reference run, wrapped on traced runs.
	live   crowd.StreamMarketplace
	traced *tracedMarket // live, on traced runs only
	ref    reference
}

// reference is what a query instance produced on the simulated crowd
// at set-up.
type reference struct {
	rows     []string
	hits     int
	dollars  float64
	makespan float64
	quality  float64
	// posted is the order-independent digest of the posted groups'
	// content keys (see recorder), so a run that posts a different HIT
	// set is caught even when its rows agree.
	posted uint64
}

// paperPool generates the workload's instances from the seed: dataset
// contents, sizes and simulator seeds all derive from it.
func paperPool(seed int64) ([]*instance, error) {
	rng := rand.New(rand.NewSource(seed))
	var pool []*instance
	for i := 0; i < perShape; i++ {
		celebs := dataset.NewCelebrities(dataset.CelebrityConfig{N: celebCount, Seed: rng.Int63()})
		pool = append(pool, &instance{kind: "join", src: celebJoinSrc, seed: rng.Int63(), quality: celebJoinQuality(celebs),
			bundle: newBundle(celebs.Oracle(), []*relation.Relation{celebs.Celeb, celebs.Photos},
				dataset.IsFemaleTask(), dataset.SamePersonTask(), dataset.GenderTask(), dataset.HairColorTask(), dataset.SkinColorTask())})

		sq := dataset.NewSquares(squareCount)
		pool = append(pool, &instance{kind: "sort", src: squareSortSrc, seed: rng.Int63(),
			quality: sortQuality(sq.Oracle(), "squareSorter", "label", sq.Rel),
			bundle:  newBundle(sq.Oracle(), []*relation.Relation{sq.Rel}, dataset.SquareSorterTask())})

		movie := dataset.NewMovie(dataset.MovieConfig{Scenes: movieScenes, Actors: movieActors, Seed: rng.Int63()})
		pool = append(pool, &instance{kind: "movie", src: movieSrc, seed: rng.Int63(), quality: movieQuality(movie),
			bundle: newBundle(movie.Oracle(), []*relation.Relation{movie.Actors, movie.Scenes},
				dataset.InSceneTask(), dataset.NumInSceneTask(), dataset.QualityTask())})
	}
	return pool, nil
}

// newBundle registers a generated dataset's tables and tasks.
func newBundle(oracle crowd.Oracle, tables []*relation.Relation, tasks ...qurk.Task) *qurk.DatasetBundle {
	b := &qurk.DatasetBundle{Catalog: qurk.NewCatalog(), Library: qurk.NewLibrary(), Oracle: oracle}
	for _, t := range tables {
		b.Catalog.Register(t)
	}
	for _, t := range tasks {
		b.Library.MustRegister(t)
	}
	return b
}

// setupPaper builds the pool, runs every instance once on the
// simulated crowd to record its reference, and wires each instance's
// client for the timed loop: over the simulator, or over a replay of
// the recording. With tr set, the markets and oracles are wrapped.
func setupPaper(seed int64, replay bool, tr *tracer) ([]*instance, error) {
	pool, err := paperPool(seed)
	if err != nil {
		return nil, err
	}
	for _, in := range pool {
		rec := newRecorder(crowd.NewSimMarket(crowd.DefaultConfig(in.seed), in.bundle.Oracle))
		rows, st, dollars, err := runOnce(qurk.NewClient(rec, qurk.WithDataset(in.bundle)), in.src)
		if err != nil {
			return nil, fmt.Errorf("%s reference: %w", in.kind, err)
		}
		in.ref = reference{
			rows:     canonRows(rows),
			hits:     st.TotalHITs(),
			dollars:  dollars,
			makespan: st.PipelineMakespanHours,
			quality:  in.quality(rows),
			posted:   rec.posted.Load(),
		}
		if replay {
			in.live = rec.replay()
		} else {
			oracle := in.bundle.Oracle
			if tr != nil {
				oracle = &tracedOracle{inner: oracle, t: tr}
			}
			in.live = crowd.NewSimMarket(crowd.DefaultConfig(in.seed), oracle)
		}
		if tr != nil {
			in.traced = &tracedMarket{inner: in.live, t: tr}
			in.live = in.traced
		}
	}
	return pool, nil
}

// runOnce runs one query on a fresh client and returns its rows,
// stats and ledger spend.
func runOnce(c *qurk.Client, src string) ([]relation.Tuple, *qurk.ExecStats, float64, error) {
	out, st, err := c.RunStream(context.Background(), src, nil)
	if err != nil {
		return nil, st, 0, err
	}
	return out.Rows(), st, c.Ledger().TotalDollars(), nil
}

// paperQuery runs one instance on a fresh client over the instance's
// market and times it; on traced runs it calls the layers the client
// would call, one by one, so each is timed. A fresh client per query
// keeps every run a first run: a client's engine keeps answers across
// its runs, so a repeat on one client posts fewer HITs.
func paperQuery(in *instance, tr *tracer) (sample, error) {
	var first time.Time
	sink := func(ts []relation.Tuple, _ float64) error {
		if first.IsZero() && len(ts) > 0 {
			first = time.Now()
		}
		return nil
	}
	start := time.Now()
	client := qurk.NewClient(in.live, qurk.WithDataset(in.bundle))
	var out *relation.Relation
	var st *exec.Stats
	var err error
	if tr == nil {
		out, st, err = client.RunStream(context.Background(), in.src, sink)
	} else {
		in.traced.posted.Store(0)
		out, st, err = tracedRun(client.Engine(), in.src, sink, tr)
	}
	end := time.Now()
	if err != nil {
		return sample{}, err
	}
	if first.IsZero() {
		first = end
	}
	s := sample{latency: end.Sub(start), firstRow: first.Sub(start)}
	if err := in.ref.check(out.Rows(), st.TotalHITs(), client.Ledger().TotalDollars(), st.PipelineMakespanHours); err != nil {
		return s, fmt.Errorf("%s: %w", in.kind, err)
	}
	if tr != nil && in.traced.posted.Load() != in.ref.posted {
		return s, fmt.Errorf("%s: posted HIT set differs from the reference", in.kind)
	}
	return s, nil
}

// tracedRun is exec.RunQueryStreamContext split at its layer
// boundaries so each call is timed.
func tracedRun(eng *qurk.Engine, src string, sink exec.Sink, tr *tracer) (*relation.Relation, *exec.Stats, error) {
	t0 := time.Now()
	stmt, err := query.ParseQuery(src)
	t1 := time.Now()
	if err != nil {
		return nil, nil, err
	}
	node, err := plan.Build(stmt, eng.Library)
	t2 := time.Now()
	if err != nil {
		return nil, nil, err
	}
	rows := 0
	counted := func(ts []relation.Tuple, ready float64) error {
		rows += len(ts)
		return sink(ts, ready)
	}
	out, st, err := exec.RunPlanStreamContext(context.Background(), eng, node, counted)
	t3 := time.Now()
	tr.addPlanning(t1.Sub(t0), t2.Sub(t1), 0)
	tr.addExec(span{t2, t3}, rows)
	return out, st, err
}

func (r *reference) check(rows []relation.Tuple, hits int, dollars, makespan float64) error {
	if err := sameRows(canonRows(rows), r.rows); err != nil {
		return err
	}
	if hits != r.hits {
		return fmt.Errorf("%d HITs, reference posted %d", hits, r.hits)
	}
	if dollars != r.dollars {
		return fmt.Errorf("$%v spent, reference spent $%v", dollars, r.dollars)
	}
	if makespan != r.makespan {
		return fmt.Errorf("makespan %vh, reference %vh", makespan, r.makespan)
	}
	return nil
}

// canonRows renders rows as name=value lists with columns sorted by
// name, the form both the library and the NDJSON stream can produce.
func canonRows(rows []relation.Tuple) []string {
	out := make([]string, len(rows))
	for i, t := range rows {
		vals := map[string]string{}
		sch := t.Schema()
		for c := 0; c < t.Len(); c++ {
			vals[sch.Column(c).Name] = t.At(c).String()
		}
		out[i] = canonMap(vals)
	}
	return out
}

func canonMap(vals map[string]string) string {
	keys := make([]string, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(vals[k])
		b.WriteByte(0x1f)
	}
	return b.String()
}

// paperEnv is a set-up paper-mix workload.
type paperEnv struct {
	pool []*instance
	seed int64
	tr   *tracer
}

func newPaperEnv(seed int64, replay bool, tr *tracer) (env, error) {
	pool, err := setupPaper(seed, replay, tr)
	if err != nil {
		return nil, err
	}
	return &paperEnv{pool: pool, seed: seed, tr: tr}, nil
}

// warmup runs every instance warmupPasses times, checking each result
// like the timed loop does.
func (e *paperEnv) warmup() error {
	for p := 0; p < warmupPasses; p++ {
		for _, in := range e.pool {
			if _, err := paperQuery(in, nil); err != nil {
				return err
			}
		}
	}
	return nil
}

// run is the closed loop: one client runs the pool's instances in
// seed-shuffled passes until res.more says to stop. The pass in
// progress at the deadline runs to its end; each pass is one segment
// of res.
func (e *paperEnv) run(d time.Duration, res *runResult) {
	rng := rand.New(rand.NewSource(e.seed))
	order := make([]int, len(e.pool))
	for i := range order {
		order[i] = i
	}
	deadline := time.Now().Add(d)
	for first := true; first || res.more(deadline); first = false {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		m := res.mark()
		for _, i := range order {
			s, err := paperQuery(e.pool[i], e.tr)
			res.add(s, err)
		}
		res.segment(m)
	}
}

// crowd summarises one pass of the pool's references: deterministic
// for a seed, and reproduced by every timed query because each is
// checked against its reference.
func (e *paperEnv) crowd() crowdMetrics {
	var refs []kindRef
	for _, in := range e.pool {
		refs = append(refs, kindRef{kind: in.kind, ref: in.ref})
	}
	return summarise(refs)
}

func (e *paperEnv) finish(*runResult) (walFiles, error) { return walFiles{}, nil }

// kindRef is one query of a pass, with the shape it belongs to.
type kindRef struct {
	kind string
	ref  reference
}

type crowdMetrics struct {
	hitsPerQuery, dollarsPerQuery, makespanP50, quality float64
}

// summarise averages HITs and dollars over the pass. Makespan and
// quality are taken per query shape, then averaged over the shapes: the
// median makespan over each shape's queries that posted work, and the
// mean quality. Taking makespan per shape keeps the median inside one
// shape's distribution instead of on the seam between two.
func summarise(refs []kindRef) crowdMetrics {
	var m crowdMetrics
	spans := map[string][]float64{}
	qsum := map[string]float64{}
	qn := map[string]int{}
	for _, r := range refs {
		m.hitsPerQuery += float64(r.ref.hits)
		m.dollarsPerQuery += r.ref.dollars
		if r.ref.hits > 0 {
			spans[r.kind] = append(spans[r.kind], r.ref.makespan)
		}
		qsum[r.kind] += r.ref.quality
		qn[r.kind]++
	}
	m.hitsPerQuery /= float64(len(refs))
	m.dollarsPerQuery /= float64(len(refs))
	for k, s := range qsum {
		m.quality += s / float64(qn[k])
		m.makespanP50 += median(spans[k])
	}
	m.quality /= float64(len(qsum))
	m.makespanP50 /= float64(len(qsum))
	return m
}
