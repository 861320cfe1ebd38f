package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func at(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }

func TestUnionAndCovered(t *testing.T) {
	spans := []span{{at(5), at(8)}, {at(0), at(3)}, {at(2), at(4)}, {at(8), at(9)}}
	u := union(spans)
	if len(u) != 2 || !u[0].start.Equal(at(0)) || !u[0].end.Equal(at(4)) || !u[1].start.Equal(at(5)) || !u[1].end.Equal(at(9)) {
		t.Fatalf("union = %v", u)
	}
	if got := total(u); got != 8*time.Millisecond {
		t.Fatalf("total = %v, want 8ms", got)
	}
	// A parent span [0,10) with overlapping children [1,3), [2,5) and
	// [9,12): the children cover [1,5) and [9,10), so self time is 5ms.
	parents := []span{{at(0), at(10)}}
	children := []span{{at(1), at(3)}, {at(2), at(5)}, {at(9), at(12)}}
	if got := covered(parents, children); got != 5*time.Millisecond {
		t.Fatalf("covered = %v, want 5ms", got)
	}
	if got := covered(parents, nil); got != 0 {
		t.Fatalf("covered by nothing = %v", got)
	}
	// Two parents sharing one child count the shared part once.
	if got := covered([]span{{at(0), at(4)}, {at(2), at(6)}}, []span{{at(3), at(5)}}); got != 2*time.Millisecond {
		t.Fatalf("covered with overlapping parents = %v, want 2ms", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i)
	}
	p50, err := percentile(xs, 0.5)
	if err != nil || p50 != 499.5 {
		t.Fatalf("p50 = %v, %v", p50, err)
	}
	p99, err := percentile(xs, 0.99)
	if err != nil || math.Abs(p99-989.01) > 1e-9 {
		t.Fatalf("p99 = %v, %v", p99, err)
	}
	// 999 samples leave fewer than ten beyond p99: no number.
	if _, err := percentile(xs[:999], 0.99); err == nil {
		t.Fatal("p99 of 999 samples reported a number")
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Fatal("p50 of no samples reported a number")
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Fatalf("median = %v", m)
	}
}

func TestQualityScores(t *testing.T) {
	if got := kendallTau([]float64{1, 2, 3, 4}); got != 1 {
		t.Fatalf("tau ascending = %v", got)
	}
	if got := kendallTau([]float64{4, 3, 2, 1}); got != -1 {
		t.Fatalf("tau descending = %v", got)
	}
	if got := f1(3, 4, 6); math.Abs(got-0.6) > 1e-12 {
		t.Fatalf("f1 = %v", got)
	}
}

// TestRefLoop checks that the reference loop allocates nothing, so its
// time does not depend on the heap, and that the scaling is the one
// README.md states.
func TestRefLoop(t *testing.T) {
	if n := testing.AllocsPerRun(3, func() { refLoop() }); n != 0 {
		t.Fatalf("refLoop allocates %v times per run", n)
	}
	if d := refLoop(); d <= 0 {
		t.Fatalf("refLoop took %v of CPU", d)
	}
	r := runResult{refs: []time.Duration{refNominal, 2 * refNominal, 2 * refNominal}}
	if got := r.hostScale(); got != 0.5 {
		t.Fatalf("hostScale = %v, want refNominal / median = 0.5", got)
	}
}

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs every workload briefly, plain and traced, and checks
// that each passes its output checks and reports every metric
// BENCHMARK.json names, with its unit. The plain half of a traced run
// must hold 1000 queries for p99, hence its length.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Fatalf("BENCHMARK.json names workload %q the benchmark does not have", w.Name)
		}
	}
	for _, name := range workloadNames() {
		setup := workloads[name]
		t.Run(name, func(t *testing.T) {
			res, err := plain(setup, 7, 2*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, spec.EndToEnd)
			res, err = traced(setup, 7, 24*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, spec.PerLayer)
		})
	}
}

func checkResult(t *testing.T, res result, want []struct{ Name, Unit string }) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("run failed its checks: %+v", res)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics reported, BENCHMARK.json names %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", m.Name)
		case got.Unit != m.Unit:
			t.Errorf("metric %s in %s, BENCHMARK.json says %s", m.Name, got.Unit, m.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("metric %s = %v", m.Name, got.Value)
		}
	}
	if t.Failed() {
		var names []string
		for n := range res.Metrics {
			names = append(names, n)
		}
		t.Logf("reported: %s", strings.Join(names, ", "))
	}
}
