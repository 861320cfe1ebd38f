package main

import (
	"fmt"
	"sync"
	"sync/atomic"

	"qurk/internal/crowd"
	"qurk/internal/hit"
	"qurk/internal/wal"
)

// recorder forwards every group to a streaming marketplace and keeps a
// deep copy of each result under the group's content key
// (wal.GroupKey). It streams too, so recording takes the engine's
// streaming path.
type recorder struct {
	inner crowd.StreamMarketplace
	// posted sums the content keys of every group posted through the
	// recorder: a digest of the posted-HIT multiset.
	posted atomic.Uint64

	mu      sync.Mutex
	results map[uint64]*crowd.RunResult
}

func newRecorder(inner crowd.StreamMarketplace) *recorder {
	return &recorder{inner: inner, results: map[uint64]*crowd.RunResult{}}
}

func (r *recorder) Run(g *hit.Group) (*crowd.RunResult, error) { return r.RunStream(g, nil) }

func (r *recorder) RunAsync(g *hit.Group) <-chan crowd.Async {
	return crowd.GoRun(func() (*crowd.RunResult, error) { return r.Run(g) })
}

func (r *recorder) RunStream(g *hit.Group, deliver func(string, []hit.Assignment)) (*crowd.RunResult, error) {
	res, err := r.inner.RunStream(g, deliver)
	if err != nil {
		return nil, err
	}
	key := wal.GroupKey(g)
	r.posted.Add(key)
	r.mu.Lock()
	if _, seen := r.results[key]; !seen {
		r.results[key] = copyResult(res)
	}
	r.mu.Unlock()
	return res, nil
}

// replayMarket serves the results a recorder captured, so no HIT is
// simulated. A group whose key was never recorded fails the query: a
// replay never falls back to simulation.
type replayMarket struct {
	results map[uint64]*crowd.RunResult // read-only after construction
}

// replay ends the recording and returns a market that serves it.
func (r *recorder) replay() *replayMarket {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := &replayMarket{results: r.results}
	r.results = nil
	return m
}

func (m *replayMarket) Run(g *hit.Group) (*crowd.RunResult, error) { return m.RunStream(g, nil) }

func (m *replayMarket) RunAsync(g *hit.Group) <-chan crowd.Async {
	return crowd.GoRun(func() (*crowd.RunResult, error) { return m.Run(g) })
}

// RunStream delivers each HIT's recorded assignments in posting order,
// then returns a private copy of the recorded result.
func (m *replayMarket) RunStream(g *hit.Group, deliver func(string, []hit.Assignment)) (*crowd.RunResult, error) {
	rec, ok := m.results[wal.GroupKey(g)]
	if !ok {
		return nil, fmt.Errorf("replay: group %s (%d HITs) was not recorded", g.ID, len(g.HITs))
	}
	res := copyResult(rec)
	if deliver != nil {
		byHIT := map[string][]hit.Assignment{}
		for _, a := range res.Assignments {
			byHIT[a.HITID] = append(byHIT[a.HITID], a)
		}
		for _, h := range g.HITs {
			if as := byHIT[h.ID]; len(as) > 0 {
				deliver(h.ID, as)
			}
		}
	}
	return res, nil
}

// copyResult deep-copies a result so no caller can alter a recording.
func copyResult(r *crowd.RunResult) *crowd.RunResult {
	out := &crowd.RunResult{
		MakespanHours:    r.MakespanHours,
		TotalAssignments: r.TotalAssignments,
		Incomplete:       append([]string(nil), r.Incomplete...),
	}
	if r.Expired != nil {
		out.Expired = make(map[string]int, len(r.Expired))
		for k, v := range r.Expired {
			out.Expired[k] = v
		}
	}
	out.Assignments = make([]hit.Assignment, len(r.Assignments))
	for i, a := range r.Assignments {
		a.Answers = make([]hit.Answer, len(a.Answers))
		for j, ans := range r.Assignments[i].Answers {
			if ans.Fields != nil {
				f := make(map[string]string, len(ans.Fields))
				for k, v := range ans.Fields {
					f[k] = v
				}
				ans.Fields = f
			}
			ans.Pairs = append([][2]int(nil), ans.Pairs...)
			ans.Order = append([]int(nil), ans.Order...)
			a.Answers[j] = ans
		}
		out.Assignments[i] = a
	}
	return out
}
