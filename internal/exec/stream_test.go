package exec

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"qurk/internal/core"
	"qurk/internal/crowd"
	"qurk/internal/dataset"
	"qurk/internal/hit"
	"qurk/internal/join"
	"qurk/internal/plan"
	"qurk/internal/query"
	"qurk/internal/relation"
)

// runRows serializes a query's result rows for comparison.
func runRows(t *testing.T, e *core.Engine, src string) (string, *Stats) {
	t.Helper()
	out, stats, err := runQuery(e, src)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for i := 0; i < out.Len(); i++ {
		fmt.Fprintln(&sb, out.Row(i))
	}
	return sb.String(), stats
}

// TestLimitShortCircuitsFilterHITs is the streaming executor's core
// cost win: LIMIT k over a crowd filter stops posting HITs once k
// tuples are out, where the materializing executor pays for the whole
// input (ceil(200/5) = 40 HITs here).
func TestLimitShortCircuitsFilterHITs(t *testing.T) {
	build := func(chunk int) *core.Engine {
		d := dataset.NewCelebrities(dataset.CelebrityConfig{N: 200, Seed: 5})
		m := crowd.NewSimMarket(crowd.DefaultConfig(5), d.Oracle())
		e := core.NewEngine(m, core.Options{StreamChunkHITs: chunk})
		e.Catalog.Register(d.Celeb)
		e.Library.MustRegister(dataset.IsFemaleTask())
		return e
	}

	e := build(4)
	out, stats, err := runQuery(e, `SELECT c.name FROM celeb AS c WHERE isFemale(c.img) LIMIT 3`)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 3 {
		t.Fatalf("limit rows = %d, want 3", out.Len())
	}
	full := 40 // ceil(200/5) HITs for the whole input
	if got := stats.TotalHITs(); got == 0 || got >= full {
		t.Errorf("LIMIT 3 posted %d HITs, want 0 < HITs < %d (materializing cost)", got, full)
	}

	// Without LIMIT the same plan pays full freight.
	e2 := build(4)
	_, stats2, err := runQuery(e2, `SELECT c.name FROM celeb AS c WHERE isFemale(c.img)`)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.TotalHITs() != full {
		t.Errorf("full filter posted %d HITs, want %d", stats2.TotalHITs(), full)
	}
	if stats.TotalHITs()*2 > stats2.TotalHITs() {
		t.Errorf("LIMIT savings too small: %d vs %d", stats.TotalHITs(), stats2.TotalHITs())
	}
}

// TestLimitShortCircuitsJoinHITs: the same short-circuit through a
// crowd join — pair HITs stop posting once the limit is satisfied.
func TestLimitShortCircuitsJoinHITs(t *testing.T) {
	build := func() *core.Engine {
		d := dataset.NewCelebrities(dataset.CelebrityConfig{N: 20, Seed: 3})
		m := crowd.NewSimMarket(crowd.DefaultConfig(3), d.Oracle())
		e := core.NewEngine(m, core.Options{JoinAlgorithm: join.Naive, JoinBatch: 5, StreamChunkHITs: 4})
		e.Catalog.Register(d.Celeb)
		e.Catalog.Register(d.Photos)
		e.Library.MustRegister(dataset.SamePersonTask())
		return e
	}
	src := `SELECT c.name FROM celeb c JOIN photos p ON samePerson(c.img, p.img)`

	_, full, err := runQuery(build(), src)
	if err != nil {
		t.Fatal(err)
	}
	out, limited, err := runQuery(build(), src+` LIMIT 2`)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Fatalf("limit rows = %d, want 2", out.Len())
	}
	if limited.TotalHITs() == 0 || limited.TotalHITs()*2 > full.TotalHITs() {
		t.Errorf("LIMIT 2 join posted %d HITs vs %d full — expected < half", limited.TotalHITs(), full.TotalHITs())
	}
}

// TestBatchSizeInvariance: query results are bit-identical at any
// operator batch size and any HIT chunk size — scheduling knobs must
// never leak into answers.
func TestBatchSizeInvariance(t *testing.T) {
	run := func(execBatch, chunk int, combiner string) string {
		d := dataset.NewCelebrities(dataset.CelebrityConfig{N: 24, Seed: 7})
		m := crowd.NewSimMarket(crowd.DefaultConfig(7), d.Oracle())
		e := core.NewEngine(m, core.Options{
			JoinAlgorithm: join.Naive, JoinBatch: 5,
			ExecBatch: execBatch, StreamChunkHITs: chunk, Combiner: combiner,
		})
		e.Catalog.Register(d.Celeb)
		e.Catalog.Register(d.Photos)
		e.Library.MustRegister(dataset.IsFemaleTask())
		e.Library.MustRegister(dataset.SamePersonTask())
		e.Library.MustRegister(dataset.GenderTask())
		rows, stats := runRows(t, e, `
SELECT c.name FROM celeb c JOIN photos p
ON samePerson(c.img, p.img)
AND POSSIBLY gender(c.img) = gender(p.img)
ORDER BY c.name`)
		return fmt.Sprintf("%s|hits=%d", rows, stats.TotalHITs())
	}
	for _, combiner := range []string{"MajorityVote", "QualityAdjust"} {
		base := run(32, 8, combiner)
		if !strings.Contains(base, "Celebrity") {
			t.Fatalf("%s: no rows:\n%s", combiner, base)
		}
		for _, cfg := range [][2]int{{1, 8}, {7, 8}, {64, 8}, {32, 1}, {32, 3}, {32, 1000}} {
			if got := run(cfg[0], cfg[1], combiner); got != base {
				t.Errorf("%s: ExecBatch=%d StreamChunkHITs=%d diverged:\n--- base\n%s--- got\n%s",
					combiner, cfg[0], cfg[1], base, got)
			}
		}
	}
}

// recordingMarket wraps a marketplace and records every posted HIT
// with its question IDs, so tests can assert the posted-HIT *set* —
// not just the count — is invariant across scheduling knobs.
type recordingMarket struct {
	crowd.Marketplace
	mu    sync.Mutex
	lines []string
}

func (m *recordingMarket) note(g *hit.Group) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, h := range g.HITs {
		var sb strings.Builder
		sb.WriteString(h.ID)
		for i := range h.Questions {
			sb.WriteByte(' ')
			sb.WriteString(h.Questions[i].ID)
		}
		m.lines = append(m.lines, sb.String())
	}
}

// posted returns the recorded HIT lines as one order-independent blob.
func (m *recordingMarket) posted() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := append([]string(nil), m.lines...)
	sort.Strings(out)
	return strings.Join(out, "\n")
}

func (m *recordingMarket) Run(g *hit.Group) (*crowd.RunResult, error) {
	m.note(g)
	return m.Marketplace.Run(g)
}

func (m *recordingMarket) RunAsync(g *hit.Group) <-chan crowd.Async {
	m.note(g)
	return m.Marketplace.RunAsync(g)
}

// TestColumnarInvarianceAcrossBatchAndCap: the columnar batch layout
// and binary spill codec must be observationally invisible — rows AND
// the posted-HIT set (IDs and question membership) are bit-identical
// across the full ExecBatch × BreakerMemTuples grid for seeded filter,
// join, and grouped-sort plans.
func TestColumnarInvarianceAcrossBatchAndCap(t *testing.T) {
	celebEngine := func(rm *recordingMarket, execBatch, cap int) *core.Engine {
		e := core.NewEngine(rm, core.Options{
			JoinAlgorithm: join.Naive, JoinBatch: 5,
			ExecBatch: execBatch, BreakerMemTuples: cap, StreamChunkHITs: 4,
		})
		return e
	}
	plans := []struct {
		name string
		src  string
		run  func(execBatch, cap int) string
	}{
		{name: "filter", src: `SELECT c.name FROM celeb AS c WHERE isFemale(c.img)`},
		{name: "join", src: `SELECT c.name FROM celeb c JOIN photos p ON samePerson(c.img, p.img)`},
		{name: "sort", src: `
SELECT name, scenes.img FROM actors JOIN scenes
ON inScene(actors.img, scenes.img)
ORDER BY name, quality(scenes.img)`},
	}
	for i := range plans {
		p := &plans[i]
		src := p.src
		if p.name == "sort" {
			p.run = func(execBatch, cap int) string {
				mv := dataset.NewMovie(dataset.MovieConfig{Scenes: 14, Actors: 2, Seed: 31})
				rm := &recordingMarket{Marketplace: crowd.NewSimMarket(crowd.DefaultConfig(31), mv.Oracle())}
				e := core.NewEngine(rm, core.Options{
					SortMethod: core.SortCompare,
					ExecBatch:  execBatch, BreakerMemTuples: cap, StreamChunkHITs: 4,
				})
				e.Catalog.Register(mv.Actors)
				e.Catalog.Register(mv.Scenes)
				e.Library.MustRegister(dataset.InSceneTask())
				e.Library.MustRegister(dataset.QualityTask())
				rows, _ := runRows(t, e, src)
				return rows + "#hits#\n" + rm.posted()
			}
			continue
		}
		p.run = func(execBatch, cap int) string {
			d := dataset.NewCelebrities(dataset.CelebrityConfig{N: 18, Seed: 37})
			rm := &recordingMarket{Marketplace: crowd.NewSimMarket(crowd.DefaultConfig(37), d.Oracle())}
			e := celebEngine(rm, execBatch, cap)
			e.Catalog.Register(d.Celeb)
			e.Catalog.Register(d.Photos)
			e.Library.MustRegister(dataset.IsFemaleTask())
			e.Library.MustRegister(dataset.SamePersonTask())
			rows, _ := runRows(t, e, src)
			return rows + "#hits#\n" + rm.posted()
		}
	}
	for _, p := range plans {
		base := p.run(32, 0)
		if !strings.Contains(base, "/hit") {
			t.Fatalf("%s: no HITs recorded:\n%s", p.name, base)
		}
		for _, execBatch := range []int{1, 7, 64} {
			for _, cap := range []int{0, 3, 16} {
				if execBatch == 32 && cap == 0 {
					continue
				}
				if got := p.run(execBatch, cap); got != base {
					t.Errorf("%s: ExecBatch=%d BreakerMemTuples=%d diverged:\n--- base\n%s\n--- got\n%s",
						p.name, execBatch, cap, base, got)
				}
			}
		}
	}
}

// TestBatchTupleRoundTrip: the exec batch shim reproduces its input
// tuples exactly — batchOfTuples → Rows is the identity for every
// value kind, including NULL and UNKNOWN attributes.
func TestBatchTupleRoundTrip(t *testing.T) {
	sch := relation.MustSchema(
		relation.Column{Name: "t", Kind: relation.KindText},
		relation.Column{Name: "i", Kind: relation.KindInt},
		relation.Column{Name: "f", Kind: relation.KindFloat},
		relation.Column{Name: "b", Kind: relation.KindBool},
		relation.Column{Name: "u", Kind: relation.KindURL},
		relation.Column{Name: "n", Kind: relation.KindText},
	)
	tuples := []relation.Tuple{
		relation.MustTuple(sch, relation.Text("a"), relation.Int(-3), relation.Float(2.5),
			relation.Bool(true), relation.URL("http://x"), relation.Null()),
		relation.MustTuple(sch, relation.Text(""), relation.Int(0), relation.Float(0),
			relation.Bool(false), relation.Null(), relation.Unknown()),
	}
	b := batchOfTuples(sch, tuples, 1.5)
	if b.Len() != len(tuples) || b.Ready != 1.5 {
		t.Fatalf("batch shape: len=%d ready=%v", b.Len(), b.Ready)
	}
	for i, got := range b.Rows() {
		if got.Key() != tuples[i].Key() || got.String() != tuples[i].String() {
			t.Errorf("row %d: %v != %v", i, got, tuples[i])
		}
	}
	b.Cols.Release()
}

// cancelMarket cancels a context the first time a group is posted,
// simulating a caller abandoning a query mid-pipeline.
type cancelMarket struct {
	crowd.Marketplace
	cancel context.CancelFunc
}

func (m *cancelMarket) RunAsync(g *hit.Group) <-chan crowd.Async {
	m.cancel()
	return m.Marketplace.RunAsync(g)
}

func (m *cancelMarket) Run(g *hit.Group) (*crowd.RunResult, error) {
	m.cancel()
	return m.Marketplace.Run(g)
}

// TestContextCancellationMidPipeline: once ctx is done, the pipeline
// unwinds with ctx's error instead of continuing to post and wait.
func TestContextCancellationMidPipeline(t *testing.T) {
	d := dataset.NewCelebrities(dataset.CelebrityConfig{N: 60, Seed: 11})
	ctx, cancel := context.WithCancel(context.Background())
	m := &cancelMarket{Marketplace: crowd.NewSimMarket(crowd.DefaultConfig(11), d.Oracle()), cancel: cancel}
	e := core.NewEngine(m, core.Options{StreamChunkHITs: 2})
	e.Catalog.Register(d.Celeb)
	e.Library.MustRegister(dataset.IsFemaleTask())
	_, _, err := runQueryContext(ctx, e, `SELECT c.name FROM celeb AS c WHERE isFemale(c.img)`)
	if err == nil {
		t.Fatal("cancelled query returned no error")
	}
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestPipelineOverlapsCrowdPhases: with chunked posting, a downstream
// crowd join starts posting pair HITs off early filter chunks while
// later chunks are still in flight. The materializing baseline is the
// same query with one monolithic chunk per operator (a huge
// StreamChunkHITs): there the join's single chunk cannot post until
// the filter's single chunk fully completes, so its end-to-end
// virtual-clock makespan is strictly serial.
func TestPipelineOverlapsCrowdPhases(t *testing.T) {
	run := func(chunk int) *Stats {
		d := dataset.NewCelebrities(dataset.CelebrityConfig{N: 40, Seed: 21})
		m := crowd.NewSimMarket(crowd.DefaultConfig(21), d.Oracle())
		e := core.NewEngine(m, core.Options{JoinAlgorithm: join.Naive, JoinBatch: 5, StreamChunkHITs: chunk})
		e.Catalog.Register(d.Celeb)
		e.Catalog.Register(d.Photos)
		e.Library.MustRegister(dataset.IsFemaleTask())
		e.Library.MustRegister(dataset.SamePersonTask())
		_, stats, err := runQuery(e, `
SELECT c.name FROM celeb c JOIN photos p
ON samePerson(c.img, p.img)
WHERE isFemale(c.img)`)
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	streamed := run(2)
	monolithic := run(1 << 20)
	if streamed.PipelineMakespanHours <= 0 || monolithic.PipelineMakespanHours <= 0 {
		t.Fatal("pipeline makespan not tracked")
	}
	// Same HITs either way — chunking changes latency, not cost.
	if streamed.TotalHITs() != monolithic.TotalHITs() {
		t.Errorf("HITs differ across chunking: %d vs %d", streamed.TotalHITs(), monolithic.TotalHITs())
	}
	if streamed.PipelineMakespanHours >= monolithic.PipelineMakespanHours {
		t.Errorf("no overlap win: streamed %.4fh >= materializing %.4fh",
			streamed.PipelineMakespanHours, monolithic.PipelineMakespanHours)
	}
	// And the pipelined clock never exceeds the no-overlap estimate.
	if p, s := streamed.PipelineMakespanHours, streamed.SerialMakespanHours(); p > s+1e-9 {
		t.Errorf("pipeline %.4fh exceeds serial estimate %.4fh", p, s)
	}
}

// TestDuplicateRowsChunkInvariance: content-duplicate rows must not
// make results depend on chunk collection timing. Each duplicate posts
// its own questions within a run (an answer store is consulted only
// when a question's content is first minted, so it serves only entries
// that predate the run), so output is identical at any StreamChunkHITs.
func TestDuplicateRowsChunkInvariance(t *testing.T) {
	run := func(chunk int) string {
		d := dataset.NewCelebrities(dataset.CelebrityConfig{N: 18, Seed: 29})
		dup := relation.New(d.Celeb.Name(), d.Celeb.Schema())
		for i := 0; i < d.Celeb.Len(); i++ {
			if err := dup.Append(d.Celeb.Row(i)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 4; i++ { // re-append the first rows verbatim
			if err := dup.Append(d.Celeb.Row(i)); err != nil {
				t.Fatal(err)
			}
		}
		m := crowd.NewSimMarket(crowd.DefaultConfig(29), d.Oracle())
		e := core.NewEngine(m, core.Options{StreamChunkHITs: chunk, ExecBatch: 3})
		e.Catalog.Register(dup)
		e.Library.MustRegister(dataset.IsFemaleTask())
		rows, stats := runRows(t, e, `SELECT c.name FROM celeb AS c WHERE isFemale(c.img)`)
		return fmt.Sprintf("%s|hits=%d", rows, stats.TotalHITs())
	}
	base := run(1)
	for _, chunk := range []int{2, 8, 1 << 20} {
		if got := run(chunk); got != base {
			t.Errorf("StreamChunkHITs=%d diverged with duplicate rows:\n--- chunk=1\n%s--- got\n%s", chunk, base, got)
		}
	}
}

// TestMakespanCountsRejectedTuples: a query whose final filter rejects
// everything still spent crowd time deciding those tuples; the
// pipelined makespan must reflect it even though no batch reaches the
// root.
func TestMakespanCountsRejectedTuples(t *testing.T) {
	d := dataset.NewCelebrities(dataset.CelebrityConfig{N: 20, Seed: 23})
	m := crowd.NewSimMarket(crowd.DefaultConfig(23), d.Oracle())
	e := core.NewEngine(m, core.Options{})
	e.Catalog.Register(d.Celeb)
	e.Library.MustRegister(dataset.IsFemaleTask())
	// Contradiction: serial AND of a predicate and its negation over
	// independent vote rounds rejects (nearly) everything.
	out, stats, err := runQuery(e, `SELECT c.name FROM celeb c WHERE isFemale(c.img) AND NOT isFemale(c.img)`)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalHITs() == 0 {
		t.Fatal("no HITs posted")
	}
	if out.Len() > 2 && stats.PipelineMakespanHours <= 0 {
		t.Skip("contradiction unexpectedly kept rows") // defensive; seeds make this empty
	}
	if stats.PipelineMakespanHours <= 0 {
		t.Errorf("PipelineMakespanHours = %v despite %d HITs spent", stats.PipelineMakespanHours, stats.TotalHITs())
	}
}

// TestDescribeMarksBreakers: the operator-tree renderer labels
// pipeline breakers so plans can be inspected.
func TestDescribeMarksBreakers(t *testing.T) {
	s := dataset.NewSquares(10)
	m := crowd.NewSimMarket(crowd.DefaultConfig(1), s.Oracle())
	e := core.NewEngine(m, core.Options{})
	e.Catalog.Register(s.Rel)
	e.Library.MustRegister(dataset.SquareSorterTask())
	stmt, err := query.ParseQuery(`SELECT label FROM squares ORDER BY squareSorter(img) LIMIT 3`)
	if err != nil {
		t.Fatal(err)
	}
	node, err := plan.Build(stmt, e.Library)
	if err != nil {
		t.Fatal(err)
	}
	op, err := Compile(e, node)
	if err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	tree := Describe(op)
	if !strings.Contains(tree, "⇥") {
		t.Errorf("no pipeline breaker marked in:\n%s", tree)
	}
	if !strings.Contains(tree, "Limit(3)") || !strings.Contains(tree, "Scan(") {
		t.Errorf("tree missing operators:\n%s", tree)
	}
}

// TestStreamChunkHITsOne exercises the finest-grained chunking end to
// end (every HIT its own marketplace post) over an OR filter, where
// branch pipelines interleave.
func TestStreamChunkHITsOne(t *testing.T) {
	d := dataset.NewCelebrities(dataset.CelebrityConfig{N: 12, Seed: 19})
	m := crowd.NewSimMarket(crowd.DefaultConfig(19), d.Oracle())
	e := core.NewEngine(m, core.Options{StreamChunkHITs: 1, ExecBatch: 1})
	e.Catalog.Register(d.Celeb)
	e.Library.MustRegister(dataset.IsFemaleTask())
	out, stats, err := runQuery(e, `SELECT c.name FROM celeb c WHERE isFemale(c.img) OR NOT isFemale(c.img)`)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() < d.Celeb.Len()-3 {
		t.Errorf("OR tautology kept %d/%d", out.Len(), d.Celeb.Len())
	}
	if stats.TotalHITs() != 6 { // two branches × ceil(12/5)
		t.Errorf("HITs = %d, want 6", stats.TotalHITs())
	}
}
