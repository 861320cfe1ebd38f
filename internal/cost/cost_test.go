package cost

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestDollars(t *testing.T) {
	// Paper §3.3.2: 900 comparisons × 10 assignments × $0.015 = $135.
	if got := Dollars(900, 10); math.Abs(got-135) > 1e-9 {
		t.Errorf("Dollars(900,10) = %v, want 135", got)
	}
	// §3.3.4: unfiltered join at 5 assignments = $67.50.
	if got := Dollars(900, 5); math.Abs(got-67.5) > 1e-9 {
		t.Errorf("Dollars(900,5) = %v, want 67.50", got)
	}
}

func TestLedger(t *testing.T) {
	l := NewLedger()
	l.Add("join", 900, 5)
	l.Add("extract", 16, 5)
	if l.TotalHITs() != 916 {
		t.Errorf("hits = %d", l.TotalHITs())
	}
	want := Dollars(900, 5) + Dollars(16, 5)
	if math.Abs(l.TotalDollars()-want) > 1e-9 {
		t.Errorf("dollars = %v, want %v", l.TotalDollars(), want)
	}
	rep := l.Report()
	for _, s := range []string{"join", "extract", "TOTAL", "916"} {
		if !strings.Contains(rep, s) {
			t.Errorf("report missing %q:\n%s", s, rep)
		}
	}
	if len(l.Entries()) != 2 {
		t.Errorf("entries = %d", len(l.Entries()))
	}
}

// TestLabelDollarsMatchesEntries checks the per-label running total is
// bit-identical to summing that label's entries in Add order.
func TestLabelDollarsMatchesEntries(t *testing.T) {
	l := NewLedger()
	for i := 0; i < 50; i++ {
		l.Add("a", i%7+1, i%5+1)
		l.Add("b", 3, 2)
	}
	for _, label := range []string{"a", "b", "none"} {
		var want float64
		for _, e := range l.Entries() {
			if e.Label == label {
				want += e.Dollars()
			}
		}
		if got := l.LabelDollars(label); got != want {
			t.Errorf("LabelDollars(%q) = %v, want %v", label, got, want)
		}
	}
}

// TestTotalDollarsMatchesEntries checks the running total is
// bit-identical to summing every entry in Add order, over random
// ledgers whose non-associative float sums would expose a reordering.
func TestTotalDollarsMatchesEntries(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		l := NewLedger()
		for i, n := 0, rng.Intn(300); i < n; i++ {
			l.Add(string(rune('a'+rng.Intn(4))), rng.Intn(1000), 1+rng.Intn(9))
		}
		var want float64
		for _, e := range l.Entries() {
			want += e.Dollars()
		}
		if got := l.TotalDollars(); got != want {
			t.Fatalf("trial %d: TotalDollars = %v, in-order sum = %v", trial, got, want)
		}
	}
}
