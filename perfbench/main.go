// Command perfbench is qurk's end-to-end benchmark. It drives one
// workload for a fixed time through the public qurk.Client or through
// an in-process qurkd service, checks every result against a reference
// recorded at set-up, and prints its metrics as one JSON line:
//
//	go run . --workload paper-mix-sim --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics, with times on the process
// CPU clock; --trace 1 runs the workload once plain and once with every
// layer seam wrapped in timing wrappers, and reports the per-layer
// metrics, the plain half's wall-clock times and the tracing overhead.
// See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// setupReps is how many times a run sets the workload up; setup_s is
// the median of their user CPU times, scaled like
// norm_user_cpu_ms_per_query, so one slow set-up does not move it.
const setupReps = 5

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is one set-up workload ready to run.
type env interface {
	// warmup runs untimed queries until caches and pools are warm.
	warmup() error
	// run drives the closed loop for at least d, recording into res.
	run(d time.Duration, res *runResult)
	// crowd returns the crowd-side metrics of one pass of the pool.
	crowd() crowdMetrics
	// finish runs the checks that need the whole run, then releases
	// the workload's resources.
	finish(res *runResult) (walFiles, error)
}

// workloads maps a workload name to its set-up; tr is nil for plain
// runs.
var workloads = map[string]func(seed int64, tr *tracer) (env, error){
	"paper-mix-sim":    func(seed int64, tr *tracer) (env, error) { return newPaperEnv(seed, false, tr) },
	"paper-mix-replay": func(seed int64, tr *tracer) (env, error) { return newPaperEnv(seed, true, tr) },
	"qurkd-durable":    newQurkdEnv,
}

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "workload seed: picks the dataset instances and the query order")
	seconds := flag.Float64("seconds", 10, "how long the timed loop runs")
	trace := flag.Int("trace", 0, "0 reports end-to-end metrics; 1 reports per-layer metrics from a traced run")
	flag.Parse()
	setup, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload one of %s, --seconds > 0, --trace 0 or 1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	d := time.Duration(*seconds * float64(time.Second))
	var res result
	var err error
	if *trace == 1 {
		res, err = traced(setup, *seed, d)
	} else {
		res, err = plain(setup, *seed, d)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// plain is the untraced run that reports the end-to-end metrics. Its
// times are user-mode CPU times scaled by the reference loop's speed:
// on a shared virtual machine the hypervisor takes a share of the wall
// time, and slows kernel code and every instruction, by amounts that
// change from minute to minute. The wall and unscaled CPU times are
// reported by the traced run.
func plain(setup func(int64, *tracer) (env, error), seed int64, d time.Duration) (result, error) {
	var e env
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if e != nil {
			if _, err := e.finish(nil); err != nil {
				return result{}, err
			}
		}
		start, _ := cpuTimes()
		var err error
		if e, err = setup(seed, nil); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		end, _ := cpuTimes()
		setups = append(setups, (end - start).Seconds())
	}
	if err := e.warmup(); err != nil {
		e.finish(nil)
		return result{}, fmt.Errorf("warm-up: %w", err)
	}
	res, _ := measure(e, d)
	_, finishErr := e.finish(res)
	out := res.result(finishErr)
	ok := res.ok()
	if ok == 0 {
		return out, res.firstError()
	}
	alloc, _ := res.perSegment(func(s segment) (float64, error) { return float64(s.alloc) / float64(s.queries()), nil })
	user, _ := res.perSegment(func(s segment) (float64, error) { return ms(s.user) / float64(s.queries()), nil })
	scale := res.hostScale()
	c := e.crowd()
	out.Metrics = map[string]metric{
		"hits_per_query":             {c.hitsPerQuery, "HITs"},
		"dollars_per_query":          {c.dollarsPerQuery, "USD"},
		"makespan_h_p50":             {c.makespanP50, "h"},
		"quality":                    {c.quality, "score"},
		"alloc_bytes_per_query":      {alloc, "B"},
		"norm_user_cpu_ms_per_query": {user * scale, "ms"},
		"ok_frac":                    {float64(ok) / float64(res.attempted), "ratio"},
		"setup_s":                    {median(setups) * scale, "s"},
	}
	return out, nil
}

// measure runs the timed loop between two readings of the live heap
// after a forced GC, and returns the loop's result and the heap it
// retained.
func measure(e env, d time.Duration) (*runResult, int64) {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	heapStart := ms.HeapAlloc
	res := &runResult{}
	e.run(d, res)
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return res, int64(ms.HeapAlloc) - int64(heapStart)
}

// traced runs the workload for half the time plain and half with
// every seam wrapped. It reports the per-layer metrics of the traced
// half, the tracing overhead (the traced throughput's shortfall), and
// the wall times and retained heap per query of the plain half.
func traced(setup func(int64, *tracer) (env, error), seed int64, d time.Duration) (result, error) {
	var all runResult
	qps := [2]float64{}
	var tr *tracer
	var wf walFiles
	var finishErr error
	tracedOK := 0
	retainedKB := 0.0
	var wall map[string]metric
	for phase := 0; phase < 2; phase++ {
		if phase == 1 {
			tr = &tracer{}
		}
		e, err := setup(seed, tr)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		if err := e.warmup(); err != nil {
			e.finish(nil)
			return result{}, fmt.Errorf("warm-up: %w", err)
		}
		if tr != nil {
			tr.reset()
		}
		res, retained := measure(e, d/2)
		if phase == 0 && res.ok() > 0 {
			retainedKB = float64(retained) / 1024 / float64(res.ok())
			if len(res.retainedKB) > 0 {
				retainedKB = median(res.retainedKB)
			}
			if wall, err = plainHalfMetrics(res); err != nil {
				e.finish(nil)
				return result{}, err
			}
		}
		wf, err = e.finish(res)
		finishErr = errors.Join(finishErr, err)
		qps[phase] = res.rate()
		tracedOK = res.ok()
		all.merge(res)
	}
	out := all.result(finishErr)
	if tracedOK == 0 {
		return out, all.firstError()
	}
	out.Metrics = tr.metrics(tracedOK, wf)
	out.Metrics["trace.overhead_frac"] = metric{1 - qps[1]/qps[0], "ratio"}
	out.Metrics["heap.retained_kb_per_query"] = metric{retainedKB, "KB"}
	for k, v := range wall {
		out.Metrics[k] = v
	}
	return out, nil
}

// plainHalfMetrics are the wall-clock times of an untraced loop:
// throughput, latency and time to the first row, each a median over
// segments, and p99 the median over blocks of 1000 queries. With them go
// the unscaled CPU times and the reference loop's median time that
// norm_user_cpu_ms_per_query is taken from.
func plainHalfMetrics(res *runResult) (map[string]metric, error) {
	p50, err := res.perSegment(func(s segment) (float64, error) { return percentile(res.latency[s.lo:s.hi], 0.5) })
	if err != nil {
		return nil, fmt.Errorf("wall.latency_p50_ms: %w", err)
	}
	p99, err := blockP99(res.latency)
	if err != nil {
		return nil, fmt.Errorf("wall.latency_p99_ms: %w", err)
	}
	first, err := res.perSegment(func(s segment) (float64, error) { return percentile(res.firstRow[s.lo:s.hi], 0.5) })
	if err != nil {
		return nil, fmt.Errorf("wall.first_row_p50_ms: %w", err)
	}
	cpu, _ := res.perSegment(func(s segment) (float64, error) { return ms(s.cpu) / float64(s.queries()), nil })
	sys, _ := res.perSegment(func(s segment) (float64, error) { return ms(s.cpu-s.user) / float64(s.queries()), nil })
	return map[string]metric{
		"wall.queries_per_s":       {res.rate(), "1/s"},
		"wall.latency_p50_ms":      {p50, "ms"},
		"wall.latency_p99_ms":      {p99, "ms"},
		"wall.first_row_p50_ms":    {first, "ms"},
		"process.cpu_ms_per_query": {cpu, "ms"},
		"process.sys_ms_per_query": {sys, "ms"},
		"host.ref_cpu_ms":          {ms(refNominal) / res.hostScale(), "ms"},
	}, nil
}

// sample is one completed query.
type sample struct{ latency, firstRow time.Duration }

// segment is a stretch of the timed loop that does a fixed amount of
// work: one pass over the paper mix's pool, or one qurkd epoch. The
// timed metrics are medians over segments, so a stretch of outside load
// that slows a few segments does not move them.
type segment struct {
	span
	// lo and hi bound the segment's samples in the run's latency and
	// firstRow slices.
	lo, hi int
	// cpu and user are the process's CPU time over the segment, in
	// total and in user mode.
	cpu, user time.Duration
	alloc     uint64
}

func (s segment) queries() int { return s.hi - s.lo }

// hostScale is refNominal ÷ the median CPU time of the reference loop
// over the run: the factor that scales the run's CPU times to a host
// that runs the loop in refNominal. The host's speed changes from one
// run of the loop to the next, so only the median over the run is used.
func (r *runResult) hostScale() float64 {
	refs := make([]float64, len(r.refs))
	for i, d := range r.refs {
		refs[i] = float64(d)
	}
	return float64(refNominal) / median(refs)
}

// mark is the state of the run and the process where a segment starts.
type mark struct {
	at        time.Time
	cpu, user time.Duration
	alloc     uint64
	samples   int
}

// mark measures the host's speed with the reference loop and then
// takes the state a segment starts from.
func (r *runResult) mark() mark {
	for i := 0; i < refRuns; i++ {
		r.refs = append(r.refs, refLoop())
	}
	return r.snapshot()
}

func (r *runResult) snapshot() mark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.mu.Lock()
	n := len(r.latency)
	r.mu.Unlock()
	user, cpu := cpuTimes()
	return mark{at: time.Now(), cpu: cpu, user: user, alloc: ms.TotalAlloc, samples: n}
}

// segment closes the segment that started at from.
func (r *runResult) segment(from mark) {
	to := r.snapshot()
	if to.samples == from.samples {
		return
	}
	r.segments = append(r.segments, segment{span: span{from.at, to.at}, lo: from.samples, hi: to.samples,
		cpu: to.cpu - from.cpu, user: to.user - from.user, alloc: to.alloc - from.alloc})
}

// perSegment is the median over the run's segments of f.
func (r *runResult) perSegment(f func(segment) (float64, error)) (float64, error) {
	if len(r.segments) == 0 {
		return 0, errors.New("no segment completed a query")
	}
	vs := make([]float64, len(r.segments))
	for i, s := range r.segments {
		v, err := f(s)
		if err != nil {
			return 0, err
		}
		vs[i] = v
	}
	return median(vs), nil
}

// rate is the median over segments of the queries completed per
// second.
func (r *runResult) rate() float64 {
	v, _ := r.perSegment(func(s segment) (float64, error) { return float64(s.queries()) / s.dur().Seconds(), nil })
	return v
}

// runResult accumulates a timed loop's samples; the qurkd clients add
// to it concurrently.
type runResult struct {
	mu                sync.Mutex
	latency, firstRow []float64 // ms, in completion order
	attempted, failed int
	errs              []string
	segments          []segment
	// retainedKB is the heap each segment retained per query, when the
	// workload measures it itself.
	retainedKB []float64
	// refs are the reference loop's CPU times, measured before each
	// segment.
	refs []time.Duration
}

func (r *runResult) add(s sample, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.errs) < 5 {
			r.errs = append(r.errs, err.Error())
		}
		return
	}
	r.latency = append(r.latency, ms(s.latency))
	r.firstRow = append(r.firstRow, ms(s.firstRow))
}

func (r *runResult) ok() int { return r.attempted - r.failed }

// more reports whether the loop should start another segment: until
// the deadline, and past it until the run has attempted the tailBlock
// queries that p99 needs, so a slow host lengthens the run instead of
// failing it.
func (r *runResult) more(deadline time.Time) bool {
	r.mu.Lock()
	n := r.attempted
	r.mu.Unlock()
	return time.Now().Before(deadline) || n < tailBlock
}

func (r *runResult) merge(o *runResult) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.errs = append(r.errs, o.errs...)
}

func (r *runResult) firstError() error {
	if len(r.errs) > 0 {
		return errors.New(r.errs[0])
	}
	return errors.New("no query completed")
}

// result reports the loop's counts; every failure and a failed
// whole-run check make the run incorrect, and each is printed to
// standard error.
func (r *runResult) result(finishErr error) result {
	for _, e := range r.errs {
		fmt.Fprintln(os.Stderr, "perfbench: query failed:", e)
	}
	if finishErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", finishErr)
	}
	return result{Correct: r.failed == 0 && finishErr == nil, Attempted: r.attempted, Failed: r.failed}
}
