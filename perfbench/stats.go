package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile:
// p99 needs 1000 samples, p50 needs 20.
const minTail = 10

// percentile returns the q-quantile (0 < q < 1) of xs by linear
// interpolation between order statistics. It refuses to report a
// percentile with fewer than minTail samples beyond it, so a short run
// says it cannot resolve p99 instead of printing the maximum.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if tail := float64(n) * (1 - q); n == 0 || tail < minTail {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d samples", 100*q, minTail, n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo+1 >= n {
		return s[n-1], nil
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo]), nil
}

// tailBlock is how many consecutive samples one p99 is taken over.
const tailBlock = 1000

// blockP99 is the median, over consecutive blocks of tailBlock samples,
// of each block's p99. A stall from outside the benchmark lands in one
// block and moves that block's p99, not the median. It needs one whole
// block: with fewer samples it reports an error instead of a number.
func blockP99(xs []float64) (float64, error) {
	if len(xs) < tailBlock {
		return percentile(xs, 0.99)
	}
	var ps []float64
	for i := 0; i+tailBlock <= len(xs); i += tailBlock {
		p, err := percentile(xs[i:i+tailBlock], 0.99)
		if err != nil {
			return 0, err
		}
		ps = append(ps, p)
	}
	return median(ps), nil
}

// median is the middle value of xs (the mean of the two middle values
// for an even count); 0 for no samples. Unlike percentile it has no
// tail requirement: it summarises small per-run sets such as set-up
// repetitions and per-query crowd makespans.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// span is one timed interval.
type span struct{ start, end time.Time }

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// union merges overlapping spans and returns them sorted by start.
func union(spans []span) []span {
	if len(spans) == 0 {
		return nil
	}
	s := append([]span(nil), spans...)
	sort.Slice(s, func(i, j int) bool { return s[i].start.Before(s[j].start) })
	out := []span{s[0]}
	for _, x := range s[1:] {
		last := &out[len(out)-1]
		if !x.start.After(last.end) {
			if x.end.After(last.end) {
				last.end = x.end
			}
			continue
		}
		out = append(out, x)
	}
	return out
}

// total sums span durations.
func total(spans []span) time.Duration {
	var d time.Duration
	for _, s := range spans {
		d += s.dur()
	}
	return d
}

// covered is how much of the parent spans the child spans cover: the
// length of union(parents) ∩ union(children). A parent's self time is
// total(union(parents)) - covered(parents, children).
func covered(parents, children []span) time.Duration {
	p, c := union(parents), union(children)
	var d time.Duration
	i, j := 0, 0
	for i < len(p) && j < len(c) {
		lo, hi := p[i].start, p[i].end
		if c[j].start.After(lo) {
			lo = c[j].start
		}
		if c[j].end.Before(hi) {
			hi = c[j].end
		}
		if hi.After(lo) {
			d += hi.Sub(lo)
		}
		if p[i].end.Before(c[j].end) {
			i++
		} else {
			j++
		}
	}
	return d
}
