package main

import (
	"sync"
	"sync/atomic"
	"time"

	"qurk/internal/answerstore"
	"qurk/internal/core"
	"qurk/internal/crowd"
	"qurk/internal/hit"
	"qurk/internal/relation"
	"qurk/internal/wal"
)

// tracer collects spans and counts at the seams the engine exposes as
// interfaces, plus the public calls the benchmark makes itself. Spans
// stay in memory until the run ends; every wrapper only forwards and
// times, so a traced run must reproduce the untraced run's rows and
// posted HITs exactly (the run checks that).
type tracer struct {
	mu sync.Mutex

	parse, build, optimize time.Duration
	planned, optimized     int

	exec    []span
	rowsOut int

	crowd     []span
	groupMs   []float64
	hits      int
	requested int
	completed int

	oracleCalls atomic.Int64
	oracleNs    atomic.Int64

	lookups    []span
	lookupHits int
	stores     []span

	observes, estimates []span

	submitMs []float64
	queries  []span
}

// reset drops everything recorded so far (set-up and warm-up traffic).
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.parse, t.build, t.optimize, t.planned, t.optimized = 0, 0, 0, 0, 0
	t.exec, t.rowsOut = nil, 0
	t.crowd, t.groupMs, t.hits, t.requested, t.completed = nil, nil, 0, 0, 0
	t.oracleCalls.Store(0)
	t.oracleNs.Store(0)
	t.lookups, t.lookupHits, t.stores = nil, 0, nil
	t.observes, t.estimates = nil, nil
	t.submitMs, t.queries = nil, nil
}

func (t *tracer) addPlanning(parse, build, optimize time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.parse += parse
	t.build += build
	t.planned++
	if optimize > 0 {
		t.optimize += optimize
		t.optimized++
	}
}

func (t *tracer) addExec(s span, rows int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.exec = append(t.exec, s)
	t.rowsOut += rows
}

func (t *tracer) addGroup(g *hit.Group, s span, res *crowd.RunResult) {
	requested := 0
	for _, h := range g.HITs {
		requested += h.Assignments
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.crowd = append(t.crowd, s)
	t.groupMs = append(t.groupMs, ms(s.dur()))
	t.hits += len(g.HITs)
	t.requested += requested
	if res != nil {
		t.completed += res.TotalAssignments
	}
}

func (t *tracer) addQuery(submit time.Duration, s span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.submitMs = append(t.submitMs, ms(submit))
	t.queries = append(t.queries, s)
}

func (t *tracer) add(list *[]span, s span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	*list = append(*list, s)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// walFiles is what the journal directory holds after a run.
type walFiles struct {
	bytes        int64
	groupRecords int
}

// metrics reports every per-layer metric as a run total divided by the
// queries completed, so concurrent queries need no per-query
// attribution. A layer the workload does not exercise reports 0.
func (t *tracer) metrics(queries int, w walFiles) map[string]metric {
	t.mu.Lock()
	defer t.mu.Unlock()
	q := float64(queries)
	per := func(x float64) float64 { return x / q }
	perCall := func(d time.Duration, n int) float64 {
		if n == 0 {
			return 0
		}
		return us(d) / float64(n)
	}
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

	put("query.parse_us", perCall(t.parse, t.planned), "us")
	put("plan.build_us", perCall(t.build, t.planned), "us")
	put("plan.optimize_us", perCall(t.optimize, t.optimized), "us")

	execTotal := total(union(t.exec))
	wait := covered(t.exec, t.crowd)
	put("exec.self_ms", per(ms(execTotal-wait)), "ms")
	put("exec.wait_ms", per(ms(wait)), "ms")
	put("exec.rows_out", per(float64(t.rowsOut)), "rows")

	busy := total(union(t.crowd))
	put("crowd.groups", per(float64(len(t.crowd))), "count")
	hpg, inflight, useful := 0.0, 0.0, 0.0
	if len(t.crowd) > 0 {
		hpg = float64(t.hits) / float64(len(t.crowd))
		inflight = float64(total(t.crowd)) / float64(busy)
	}
	if t.requested > 0 {
		useful = float64(t.completed) / float64(t.requested)
	}
	put("crowd.hits_per_group", hpg, "count")
	put("crowd.busy_ms", per(ms(busy)), "ms")
	put("crowd.group_ms_p50", median(t.groupMs), "ms")
	put("crowd.inflight_mean", inflight, "groups")
	put("crowd.useful_frac", useful, "ratio")

	put("dataset.oracle_calls", per(float64(t.oracleCalls.Load())), "count")
	put("dataset.oracle_ms", per(ms(time.Duration(t.oracleNs.Load()))), "ms")

	lookupUs := make([]float64, len(t.lookups))
	for i, s := range t.lookups {
		lookupUs[i] = us(s.dur())
	}
	hitFrac := 0.0
	if len(t.lookups) > 0 {
		hitFrac = float64(t.lookupHits) / float64(len(t.lookups))
	}
	put("answerstore.lookups", per(float64(len(t.lookups))), "count")
	put("answerstore.hit_frac", hitFrac, "ratio")
	put("answerstore.lookup_us_p50", median(lookupUs), "us")
	put("answerstore.store_ms", per(ms(total(t.stores))), "ms")

	put("obstats.observe_ms", per(ms(total(t.observes))), "ms")
	put("obstats.estimate_us", per(us(total(t.estimates))), "us")

	put("wal.bytes", per(float64(w.bytes)), "B")
	put("wal.group_records", per(float64(w.groupRecords)), "count")

	put("service.submit_ms_p50", median(t.submitMs), "ms")
	seams := append(append(append(append([]span(nil), t.crowd...), t.lookups...), t.stores...), t.observes...)
	seams = append(seams, t.estimates...)
	open := total(union(t.queries))
	put("service.residual_ms", per(ms(open-covered(t.queries, seams))), "ms")
	return m
}

// tracedMarket times every marketplace call and sums the posted
// groups' content keys (the same digest the recorder keeps).
type tracedMarket struct {
	inner  crowd.StreamMarketplace
	t      *tracer
	posted atomic.Uint64
}

func (m *tracedMarket) done(g *hit.Group, start time.Time, res *crowd.RunResult, err error) {
	m.t.addGroup(g, span{start, time.Now()}, res)
	if err == nil {
		m.posted.Add(wal.GroupKey(g))
	}
}

func (m *tracedMarket) Run(g *hit.Group) (*crowd.RunResult, error) {
	start := time.Now()
	res, err := m.inner.Run(g)
	m.done(g, start, res, err)
	return res, err
}

func (m *tracedMarket) RunAsync(g *hit.Group) <-chan crowd.Async {
	start := time.Now()
	in := m.inner.RunAsync(g)
	out := make(chan crowd.Async, 1)
	go func() {
		a := <-in
		m.done(g, start, a.Result, a.Err)
		out <- a
	}()
	return out
}

func (m *tracedMarket) RunStream(g *hit.Group, deliver func(string, []hit.Assignment)) (*crowd.RunResult, error) {
	start := time.Now()
	res, err := m.inner.RunStream(g, deliver)
	m.done(g, start, res, err)
	return res, err
}

// tracedOracle counts and times the ground-truth calls the simulator
// makes; they run on the simulator's worker pool, hence the atomics.
type tracedOracle struct {
	inner crowd.Oracle
	t     *tracer
}

func (o *tracedOracle) since(start time.Time) {
	o.t.oracleCalls.Add(1)
	o.t.oracleNs.Add(int64(time.Since(start)))
}

func (o *tracedOracle) JoinMatch(l, r relation.Tuple) (bool, float64) {
	defer o.since(time.Now())
	return o.inner.JoinMatch(l, r)
}

func (o *tracedOracle) FilterTruth(task string, t relation.Tuple) (bool, float64) {
	defer o.since(time.Now())
	return o.inner.FilterTruth(task, t)
}

func (o *tracedOracle) FieldValue(task, field string, t relation.Tuple) (string, float64, []string) {
	defer o.since(time.Now())
	return o.inner.FieldValue(task, field, t)
}

func (o *tracedOracle) Score(task string, t relation.Tuple) (float64, float64) {
	defer o.since(time.Now())
	return o.inner.Score(task, t)
}

func (o *tracedOracle) ScoreRange(task string) (float64, float64) {
	defer o.since(time.Now())
	return o.inner.ScoreRange(task)
}

// tracedAnswers times the shared answer store. It forwards Stats,
// which the service's /v1/store endpoint type-asserts.
type tracedAnswers struct {
	inner *answerstore.Store
	t     *tracer
}

func (a *tracedAnswers) Lookup(q *hit.Question) ([]hit.CachedAnswer, bool) {
	start := time.Now()
	ans, ok := a.inner.Lookup(q)
	s := span{start, time.Now()}
	a.t.mu.Lock()
	a.t.lookups = append(a.t.lookups, s)
	if ok {
		a.t.lookupHits++
	}
	a.t.mu.Unlock()
	return ans, ok
}

func (a *tracedAnswers) Store(q *hit.Question, answers []hit.CachedAnswer) {
	start := time.Now()
	a.inner.Store(q, answers)
	a.t.add(&a.t.stores, span{start, time.Now()})
}

func (a *tracedAnswers) Stats() answerstore.Stats { return a.inner.Stats() }

// tracedStats times the observed-statistics store.
type tracedStats struct {
	inner core.ObservedStats
	t     *tracer
}

func (s *tracedStats) Observe(task, kind string, value, weight float64) {
	start := time.Now()
	s.inner.Observe(task, kind, value, weight)
	s.t.add(&s.t.observes, span{start, time.Now()})
}

func (s *tracedStats) Estimate(task, kind string) (float64, float64, bool) {
	start := time.Now()
	v, w, ok := s.inner.Estimate(task, kind)
	s.t.add(&s.t.estimates, span{start, time.Now()})
	return v, w, ok
}
