package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qurk"
	"qurk/internal/answerstore"
	"qurk/internal/circuit"
	"qurk/internal/core"
	"qurk/internal/crowd"
	"qurk/internal/dataset"
	"qurk/internal/hit"
	"qurk/internal/mturk"
	"qurk/internal/obstats"
	"qurk/internal/plan"
	"qurk/internal/query"
	"qurk/internal/relation"
	"qurk/internal/service"
	"qurk/internal/wal"
)

const (
	// filterCelebs and joinCelebs size the slices of the two query
	// shapes so that both post a similar number of questions: a join
	// asks about every photo and every candidate pair, a filter only
	// about each row.
	filterCelebs = 24
	joinCelebs   = 6
	// epochQueries is the fixed amount of work one epoch does on one
	// freshly booted service. The service's per-query cost grows with
	// the history it holds (each submission's status reply copies the
	// tenant's whole ledger), so a run on one long-lived service would
	// make that history, and with it the cost per query, a function of
	// how fast the machine happened to be. Epochs give every measured
	// query the same history whatever the speed.
	epochQueries = 500
	// warmupQueries is the epoch, on the set-up's service, that warms
	// the process before the timed loop.
	warmupQueries = 200
	// tenants is the number of closed-loop clients, one per tenant and
	// one keep-alive connection each.
	tenants = 2
	// slices is how many disjoint dataset slices one epoch answers
	// fresh: half of its queries. Each epoch starts with an empty answer
	// store, so every epoch uses the same slices.
	slices = epochQueries / 2
	// crowdShards is how many differently seeded simulators the crowd
	// is spread over (see shardedMarket).
	crowdShards = 64
	workDir     = ".bench_build"
)

// qurkdSlice is one disjoint slice of the celebrity dataset, queried
// by one shape, with the reference the library produced for it.
type qurkdSlice struct {
	kind, src string
	ref       reference
}

// submission is one timed query as the client saw it.
type submission struct {
	id    string
	slice int
	fresh bool
}

// qurkdEnv holds what every epoch shares: the dataset's tables, the
// slices with their references, and one HTTP client per tenant.
type qurkdEnv struct {
	seed   int64
	tr     *tracer
	root   string
	opts   core.Options
	oracle crowd.Oracle
	cat    *relation.Catalog
	lib    *core.Library
	conns  [tenants]*http.Client
	slices []qurkdSlice

	boot   *qurkdBoot // the service set-up booted, until warm-up ends
	epochs int        // services booted, for their directory names
	wal    walFiles   // journal totals of the traced epochs
	err    error      // the first failed whole-epoch check
}

// qurkdBoot is one in-process qurkd, built the way cmd/qurkd builds
// it, serving on a loopback listener.
type qurkdBoot struct {
	dir    string
	store  *answerstore.Store
	stats  *obstats.Store
	svc    *service.Service
	srv    *http.Server
	served chan error
	base   string

	mu   sync.Mutex
	subs []submission
}

func newQurkdEnv(seed int64, tr *tracer) (env, error) {
	e := &qurkdEnv{seed: seed, tr: tr}
	err := e.setup()
	if err == nil {
		e.boot, err = e.start()
	}
	if err != nil {
		e.finish(nil)
		return nil, err
	}
	return e, nil
}

// sliceSize is how many celebrities slice i holds. A tenant takes
// every tenants-th slice, so the shapes alternate within each tenant's
// fresh submissions.
func sliceSize(i int) (n int, join bool) {
	if (i/tenants)%2 == 1 {
		return joinCelebs, true
	}
	return filterCelebs, false
}

func (e *qurkdEnv) setup() error {
	total := 0
	for i := 0; i < slices; i++ {
		n, _ := sliceSize(i)
		total += n
	}
	celebs := dataset.NewCelebrities(dataset.CelebrityConfig{N: total, Seed: e.seed})
	e.oracle = celebs.Oracle()
	e.cat, e.lib = qurk.NewCatalog(), qurk.NewLibrary()
	for _, t := range []qurk.Task{dataset.IsFemaleTask(), dataset.SamePersonTask(), dataset.GenderTask()} {
		e.lib.MustRegister(t)
	}
	e.opts = core.Options{Assignments: 5, Combiner: "MajorityVote", Seed: e.seed}

	// Each slice is a table pair of its own, queried by one shape.
	e.slices = make([]qurkdSlice, slices)
	quality := make([]func([]relation.Tuple) float64, slices)
	lo := 0
	for i := range e.slices {
		n, join := sliceSize(i)
		hi := lo + n
		c, p := sliceOf(celebs.Celeb, fmt.Sprintf("celeb_%d", i), lo, hi), sliceOf(celebs.Photos, fmt.Sprintf("photos_%d", i), lo, hi)
		lo = hi
		e.cat.Register(c)
		e.cat.Register(p)
		s := &e.slices[i]
		quality[i] = sliceFilterQuality(celebs, c)
		s.kind, s.src = "filter", fmt.Sprintf("SELECT c.name FROM %s c WHERE isFemale(c.img)", c.Name())
		if join {
			quality[i] = sliceJoinQuality(celebs, c, p)
			s.kind, s.src = "join", fmt.Sprintf(`SELECT c.name, p.id FROM %s c JOIN %s p
ON samePerson(c.img, p.img)
AND POSSIBLY gender(c.img) = gender(p.img)`, c.Name(), p.Name())
		}
	}

	// References: each slice's query on a fresh library client over the
	// simulator, with no answer store, one slice per CPU at a time.
	refMarket := e.market(e.oracle)
	var next atomic.Int64
	errs := make([]error, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < slices; i = int(next.Add(1) - 1) {
				s := &e.slices[i]
				rows, st, dollars, err := runOnce(qurk.NewClient(refMarket, qurk.WithOptions(e.opts), qurk.WithCatalog(e.cat), qurk.WithLibrary(e.lib)), s.src)
				if err != nil {
					errs[w] = fmt.Errorf("slice %d reference: %w", i, err)
					return
				}
				s.ref = reference{rows: canonRows(rows), hits: st.TotalHITs(), dollars: dollars,
					makespan: st.PipelineMakespanHours, quality: quality[i](rows)}
			}
		}(w)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}

	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	root, err := os.MkdirTemp(workDir, "qurkd-")
	if err != nil {
		return err
	}
	e.root = root
	for i := range e.conns {
		e.conns[i] = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	}
	return nil
}

// start boots a fresh service in a directory of its own: empty answer
// and statistics stores, an empty journal directory, and Recover run
// before it serves.
func (e *qurkdEnv) start() (*qurkdBoot, error) {
	b := &qurkdBoot{served: make(chan error, 1)}
	if err := e.startService(b); err != nil {
		return nil, errors.Join(err, e.stop(b))
	}
	return b, nil
}

func (e *qurkdEnv) startService(b *qurkdBoot) error {
	e.epochs++
	b.dir = filepath.Join(e.root, fmt.Sprintf("epoch-%d", e.epochs))
	if err := os.Mkdir(b.dir, 0o755); err != nil {
		return err
	}
	var err error
	if b.store, err = answerstore.Open(filepath.Join(b.dir, "answers.qas"), answerstore.Policy{}); err != nil {
		return err
	}
	if b.stats, err = obstats.Open(filepath.Join(b.dir, "stats.qos")); err != nil {
		return err
	}
	oracle := e.oracle
	var answers core.AnswerStore = b.store
	var stats core.ObservedStats = b.stats
	if e.tr != nil {
		oracle = &tracedOracle{inner: oracle, t: e.tr}
		answers = &tracedAnswers{inner: b.store, t: e.tr}
		stats = &tracedStats{inner: b.stats, t: e.tr}
	}
	market := e.market(oracle)
	if e.tr != nil {
		market = &tracedMarket{inner: market, t: e.tr}
	}
	registry := service.NewRegistry()
	for i := 0; i < tenants; i++ {
		registry.Ensure(tenantName(i), 0)
	}
	b.svc, err = service.New(service.Config{
		Backends: map[string]crowd.Marketplace{"sim": market},
		Catalog:  e.cat,
		Library:  e.lib,
		Answers:  answers,
		Stats:    stats,
		Options:  e.opts,
		Tenants:  registry,
		// cmd/qurkd's defaults.
		JournalDir: filepath.Join(b.dir, "journal"),
		Circuit: &circuit.Config{
			Threshold: 5,
			Cooldown:  30 * time.Second,
			Permanent: func(err error) bool { return !mturk.IsTransient(err) },
		},
	})
	if err != nil {
		return err
	}
	if err := b.svc.Recover(); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	b.base = "http://" + ln.Addr().String()
	b.srv = &http.Server{Handler: b.svc.Handler()}
	go func() { b.served <- b.srv.Serve(ln) }()
	return nil
}

// stop shuts a service down and removes its files. On traced runs it
// first adds up the journal directory for the wal metrics.
func (e *qurkdEnv) stop(b *qurkdBoot) error {
	var err error
	if b.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = b.srv.Shutdown(ctx)
		cancel()
		if serr := <-b.served; !errors.Is(serr, http.ErrServerClosed) {
			err = errors.Join(err, serr)
		}
	}
	for _, c := range e.conns {
		if c != nil {
			c.CloseIdleConnections()
		}
	}
	if b.svc != nil {
		b.svc.Close()
	}
	if b.store != nil {
		err = errors.Join(err, b.store.Close())
	}
	if b.stats != nil {
		err = errors.Join(err, b.stats.Close())
	}
	if e.tr != nil && b.svc != nil {
		wf, werr := journalFiles(filepath.Join(b.dir, "journal"))
		e.wal.bytes += wf.bytes
		e.wal.groupRecords += wf.groupRecords
		err = errors.Join(err, werr)
	}
	if b.dir != "" {
		err = errors.Join(err, os.RemoveAll(b.dir))
	}
	return err
}

// market is the workload's crowd: crowdShards simulators over oracle,
// seeded from the workload seed.
func (e *qurkdEnv) market(oracle crowd.Oracle) crowd.StreamMarketplace {
	m := make(shardedMarket, crowdShards)
	for i := range m {
		m[i] = crowd.NewSimMarket(crowd.DefaultConfig(e.seed*crowdShards+int64(i)), oracle)
	}
	return m
}

// shardedMarket spreads HIT groups over differently seeded simulators,
// picking one by the group's content key (wal.GroupKey). A SimMarket
// draws a group's workers and timings from its seed and the group's and
// HITs' IDs alone, and those IDs are the same for every slice of a
// shape, so on one simulator every filter slice would get the same
// workers and the same makespan: the crowd-side metrics would rest on
// one draw per seed. The slices' contents differ, so their groups land
// on different shards.
type shardedMarket []crowd.StreamMarketplace

func (m shardedMarket) pick(g *hit.Group) crowd.StreamMarketplace {
	return m[wal.GroupKey(g)%uint64(len(m))]
}

func (m shardedMarket) Run(g *hit.Group) (*crowd.RunResult, error) { return m.pick(g).Run(g) }

func (m shardedMarket) RunAsync(g *hit.Group) <-chan crowd.Async { return m.pick(g).RunAsync(g) }

func (m shardedMarket) RunStream(g *hit.Group, deliver func(string, []hit.Assignment)) (*crowd.RunResult, error) {
	return m.pick(g).RunStream(g, deliver)
}

func tenantName(i int) string { return fmt.Sprintf("tenant-%d", i) }

// sliceOf copies rows [lo, hi) of a dataset table into a table of its
// own name.
func sliceOf(r *relation.Relation, name string, lo, hi int) *relation.Relation {
	out := relation.New(name, r.Schema())
	for j := lo; j < hi; j++ {
		_ = out.Append(r.Row(j))
	}
	return out
}

// sliceFilterQuality is F1 of the returned names against the slice's
// women.
func sliceFilterQuality(d *dataset.Celebrities, c *relation.Relation) func([]relation.Tuple) float64 {
	oracle := d.Oracle()
	women := map[string]bool{}
	for i := 0; i < c.Len(); i++ {
		if yes, _ := oracle.FilterTruth("isFemale", c.Row(i)); yes {
			women[text(c.Row(i), "name")] = true
		}
	}
	return func(rows []relation.Tuple) float64 {
		tp := 0
		for _, r := range rows {
			if women[text(r, "name")] {
				tp++
			}
		}
		return f1(tp, len(rows), len(women))
	}
}

// sliceJoinQuality is F1 of the returned (name, id) pairs against the
// slice's true matches.
func sliceJoinQuality(d *dataset.Celebrities, c, p *relation.Relation) func([]relation.Tuple) float64 {
	celebs, photos := byColumn(c, "name"), byColumn(p, "id")
	return func(rows []relation.Tuple) float64 {
		tp := 0
		for _, r := range rows {
			cr, okC := celebs[text(r, "name")]
			pr, okP := photos[text(r, "id")]
			if okC && okP && d.IsMatch(cr, pr) {
				tp++
			}
		}
		return f1(tp, len(rows), c.Len())
	}
}

// warmup runs one short epoch on the service set-up booted, checks
// it, and shuts that service down.
func (e *qurkdEnv) warmup() error {
	b := e.boot
	e.boot = nil
	var res runResult
	e.epoch(b, warmupQueries, &res)
	err := errors.Join(e.check(b), e.stop(b))
	if res.failed > 0 {
		err = errors.Join(res.firstError(), err)
	}
	e.wal = walFiles{}
	return err
}

// run serves epochs of epochQueries queries, each on a freshly booted
// service, until res.more says to stop: the epoch in progress at the
// deadline runs to its end, so every epoch does the same work. Each epoch is one
// segment of res, and its retained heap is taken before the service is
// shut down. Boot and shutdown lie between segments.
func (e *qurkdEnv) run(d time.Duration, res *runResult) {
	deadline := time.Now().Add(d)
	var mem runtime.MemStats
	for first := true; e.err == nil && (first || res.more(deadline)); first = false {
		runtime.GC()
		runtime.ReadMemStats(&mem)
		heap := mem.HeapAlloc
		b, err := e.start()
		if err != nil {
			e.err = err
			return
		}
		m := res.mark()
		e.epoch(b, epochQueries, res)
		res.segment(m)
		runtime.GC()
		runtime.ReadMemStats(&mem)
		res.retainedKB = append(res.retainedKB, (float64(mem.HeapAlloc)-float64(heap))/1024/epochQueries)
		if e.tr != nil {
			for _, s := range b.subs {
				e.planAdmission(b, e.slices[s.slice].src)
			}
		}
		e.err = errors.Join(e.check(b), e.stop(b))
	}
}

// epoch drives one closed-loop client per tenant through n queries in
// all. A tenant alternates its next fresh slice (it owns every
// tenants-th one) with a repeat of a slice it answered earlier in the
// epoch, picked by a generator seeded per tenant, so every epoch and
// every run of a seed submits the same queries in the same order.
func (e *qurkdEnv) epoch(b *qurkdBoot, n int, res *runResult) {
	var wg sync.WaitGroup
	for t := 0; t < tenants; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(e.seed*tenants + int64(t)))
			var answered []int
			for i := 0; i < n/tenants; i++ {
				idx, fresh := t+tenants*(i/2), i%2 == 0
				if !fresh {
					idx = answered[rng.Intn(len(answered))]
				}
				s, err := e.submit(b, t, idx, fresh)
				res.add(s, err)
				if fresh {
					answered = append(answered, idx)
				}
			}
		}(t)
	}
	wg.Wait()
}

// rowLine is one NDJSON line of the rows stream.
type rowLine struct {
	Values map[string]string `json:"values"`
	State  string            `json:"state"`
	Error  string            `json:"error"`
}

// submit posts one query for tenant t, follows its row stream to the
// end and checks the rows against the slice's reference.
func (e *qurkdEnv) submit(b *qurkdBoot, t, idx int, fresh bool) (sample, error) {
	sl := &e.slices[idx]
	body, _ := json.Marshal(map[string]string{"tenant": tenantName(t), "query": sl.src})
	conn := e.conns[t]
	start := time.Now()
	resp, err := conn.Post(b.base+"/v1/queries", "application/json", bytes.NewReader(body))
	if err != nil {
		return sample{}, err
	}
	var snap struct {
		ID    string `json:"id"`
		Error string `json:"error"`
	}
	err = decodeAndClose(resp, &snap)
	submitted := time.Now()
	if err != nil {
		return sample{}, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return sample{}, fmt.Errorf("submit: %s: %s", resp.Status, snap.Error)
	}
	b.mu.Lock()
	b.subs = append(b.subs, submission{id: snap.ID, slice: idx, fresh: fresh})
	b.mu.Unlock()

	resp, err = conn.Get(b.base + "/v1/queries/" + snap.ID + "/rows")
	if err != nil {
		return sample{}, err
	}
	var rows []string
	var first time.Time
	final := rowLine{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var line rowLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			resp.Body.Close()
			return sample{}, fmt.Errorf("rows stream: %w", err)
		}
		if line.State != "" {
			final = line
			continue
		}
		if first.IsZero() {
			first = time.Now()
		}
		rows = append(rows, canonMap(line.Values))
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	end := time.Now()
	if err := sc.Err(); err != nil {
		return sample{}, fmt.Errorf("rows stream: %w", err)
	}
	if first.IsZero() {
		first = end
	}
	if e.tr != nil {
		e.tr.addQuery(submitted.Sub(start), span{start, end})
	}
	s := sample{latency: end.Sub(start), firstRow: first.Sub(start)}
	if final.State != string(service.StateDone) {
		return s, fmt.Errorf("%s ended %q: %s", snap.ID, final.State, final.Error)
	}
	if err := sameRows(rows, sl.ref.rows); err != nil {
		return s, fmt.Errorf("%s (slice %d %s): %w", snap.ID, idx, sl.kind, err)
	}
	return s, nil
}

// planAdmission repeats the service's admission planning for one
// submission so the traced run can time each planning layer: the
// service plans inside Submit, where it cannot be timed from outside.
// It runs after the epoch, against the epoch's statistics store, so
// it adds nothing to the traced throughput.
func (e *qurkdEnv) planAdmission(b *qurkdBoot, src string) {
	t0 := time.Now()
	stmt, err := query.ParseQuery(src)
	t1 := time.Now()
	if err != nil {
		return
	}
	node, err := plan.Build(stmt, e.lib)
	t2 := time.Now()
	if err != nil {
		return
	}
	po := plan.OptimizeOptionsFrom(e.opts, 0)
	po.Stats = b.stats
	_, _ = plan.Optimize(node, e.cat, po)
	e.tr.addPlanning(t1.Sub(t0), t2.Sub(t1), time.Since(t2))
}

func sameRows(got, want []string) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, reference has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("row %d is %q, reference has %q", i, got[i], want[i])
		}
	}
	return nil
}

func decodeAndClose(resp *http.Response, v any) error {
	defer resp.Body.Close()
	err := json.NewDecoder(resp.Body).Decode(v)
	_, _ = io.Copy(io.Discard, resp.Body)
	return err
}

// crowd summarises every slice answered fresh once and repeated once
// for free: an epoch's half-and-half mix.
func (e *qurkdEnv) crowd() crowdMetrics {
	var refs []kindRef
	for _, s := range e.slices {
		refs = append(refs, kindRef{kind: s.kind, ref: s.ref})
		repeat := s.ref
		repeat.hits, repeat.dollars, repeat.makespan = 0, 0, 0
		refs = append(refs, kindRef{kind: s.kind, ref: repeat})
	}
	return summarise(refs)
}

// finish shuts down a service still up, removes the workload's files,
// and returns the first failed epoch check.
func (e *qurkdEnv) finish(*runResult) (walFiles, error) {
	err := e.err
	if e.boot != nil {
		err = errors.Join(err, e.stop(e.boot))
		e.boot = nil
	}
	if e.root != "" {
		err = errors.Join(err, os.RemoveAll(e.root))
	}
	return e.wal, err
}

// check runs what only a whole epoch shows. Each fresh submission must
// post the reference's HITs, dollars and crowd makespan, each repeat
// none; every tenant charge must be applied exactly once, so tenant
// spend equals the sum of per-query spend equals the sum of the fresh
// slices' reference spend.
func (e *qurkdEnv) check(b *qurkdBoot) error {
	var list struct {
		Queries []service.Snapshot `json:"queries"`
	}
	if err := e.getJSON(b, "/v1/queries", &list); err != nil {
		return err
	}
	byID := map[string]service.Snapshot{}
	perQuery := 0.0
	for _, q := range list.Queries {
		byID[q.ID] = q
		perQuery += q.Dollars
	}
	if len(byID) != len(b.subs) {
		return fmt.Errorf("/v1/queries lists %d queries, %d were submitted", len(byID), len(b.subs))
	}
	expected := 0.0
	for _, s := range b.subs {
		q, ok := byID[s.id]
		ref := e.slices[s.slice].ref
		switch {
		case !ok:
			return fmt.Errorf("%s missing from /v1/queries", s.id)
		case s.fresh && (q.HITs != ref.hits || !near(q.Dollars, ref.dollars) || q.MakespanHours != ref.makespan):
			return fmt.Errorf("%s (fresh slice %d) posted %d HITs for $%v over %vh, reference %d for $%v over %vh",
				s.id, s.slice, q.HITs, q.Dollars, q.MakespanHours, ref.hits, ref.dollars, ref.makespan)
		case !s.fresh && (q.HITs != 0 || q.Dollars != 0 || q.MakespanHours != 0):
			return fmt.Errorf("%s (repeat of slice %d) posted %d HITs for $%v over %vh, want none", s.id, s.slice, q.HITs, q.Dollars, q.MakespanHours)
		}
		if s.fresh {
			expected += ref.dollars
		}
	}
	spent := 0.0
	for t := 0; t < tenants; t++ {
		var sn service.TenantSnapshot
		if err := e.getJSON(b, "/v1/tenants/"+tenantName(t), &sn); err != nil {
			return err
		}
		spent += sn.SpentDollars
	}
	if !near(spent, perQuery) || !near(spent, expected) {
		return fmt.Errorf("tenants spent $%v, queries record $%v, fresh slices cost $%v", spent, perQuery, expected)
	}
	return nil
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func (e *qurkdEnv) getJSON(b *qurkdBoot, path string, v any) error {
	resp, err := e.conns[0].Get(b.base + path)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return decodeAndClose(resp, v)
}

// journalFiles sums the journal directory's bytes and counts the group
// results its journals hold.
func journalFiles(dir string) (walFiles, error) {
	var wf walFiles
	ents, err := os.ReadDir(dir)
	if err != nil {
		return wf, err
	}
	for _, de := range ents {
		info, err := de.Info()
		if err != nil {
			return wf, err
		}
		wf.bytes += info.Size()
		if !strings.HasSuffix(de.Name(), ".qjl") {
			continue
		}
		j, err := wal.Open(filepath.Join(dir, de.Name()))
		if err != nil {
			return wf, err
		}
		wf.groupRecords += j.ReplayableResults()
		if err := j.Close(); err != nil {
			return wf, err
		}
	}
	return wf, nil
}
