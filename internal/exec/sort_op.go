// Sort operators. Both are pipeline breakers: a sort cannot emit its
// first row before seeing its last input row. With
// Options.BreakerMemTuples set they spill to disk — the machine sort
// becomes an external merge sort and the crowd sort externally
// partitions its input by the machine-sortable prefix columns — so
// memory drops from O(input) to O(cap) tuples (one crowd-sorted group
// still materializes while its HITs are in flight). CrowdOrderBy
// streams its *output* either way: groups are emitted group by group,
// each as soon as its crowd sort settles, so a downstream LIMIT over a
// grouped sort stops paying for later groups. Crowd sort rounds post
// through the chunked poster (exec.crowdSort), inheriting the
// refusal/expiry retry policies and overlapping posting with vote
// collection inside each group.
package exec

import (
	"context"
	"fmt"
	"sort"

	"qurk/internal/core"
	"qurk/internal/cost"
	"qurk/internal/obstats"
	"qurk/internal/plan"
	"qurk/internal/relation"
	"qurk/internal/sortop"
	"qurk/internal/spill"
)

type crowdOrderByOp struct {
	x      *executor
	node   *plan.CrowdOrderBy
	phys   plan.SortPhys
	path   string
	child  Operator
	closed bool

	// in-memory grouping (BreakerMemTuples unset)
	groups []*relation.Relation
	// spilled grouping: the input is externally sorted by group key —
	// computed once per tuple and carried as a hidden leading column
	// through the run files, so comparisons never rebuild it — and
	// groups are cut from the merged stream one at a time.
	sorter    *spill.Sorter
	iter      *spill.Iter
	keySchema *relation.Schema
	peek      *relation.Tuple // held-back first (keyed) tuple of the next group

	// windowed sub-sorts (Options.SplitSortGroups): an oversized
	// group's windows re-sort through a second external sorter keyed on
	// a hidden normalized-rank column, so one window — not one group —
	// is the memory high-water mark.
	rankSchema *relation.Schema
	winSorter  *spill.Sorter
	winIter    *spill.Iter
	winIdx     int

	gi      int
	pending []relation.Tuple
	clock   float64
	started bool
	size    int
}

func (o *crowdOrderByOp) Schema() *relation.Schema { return o.child.Schema() }
func (o *crowdOrderByOp) Name() string             { return o.child.Name() }
func (o *crowdOrderByOp) OpLabel() string          { return o.node.Label() + " [" + o.phys.String() + "]" }
func (o *crowdOrderByOp) Inputs() []Operator       { return []Operator{o.child} }

// Breakers implements BreakerDetail.
func (o *crowdOrderByOp) Breakers() []BreakerInfo {
	cap := o.x.eng.Options.BreakerMemTuples
	note := "materializes input before sorting; emits group by group"
	if cap > 0 {
		note = "partitions input into sorted runs by group key; one group in memory at a time"
	}
	return []BreakerInfo{{Kind: BreakerSortInput, MemTuples: cap, Spills: cap > 0, Note: note}}
}

// BreakerNote implements Breaker.
func (o *crowdOrderByOp) BreakerNote() string { return breakerNote(o.Breakers()) }

func (o *crowdOrderByOp) finalReady() float64 { return o.clock }

func (o *crowdOrderByOp) Close() {
	if !o.closed {
		o.closed = true
		o.child.Close()
		o.release()
	}
}

// release frees the spill resources.
func (o *crowdOrderByOp) release() {
	if o.iter != nil {
		o.iter.Close()
		o.iter = nil
	}
	if o.sorter != nil {
		o.sorter.Close()
		o.sorter = nil
	}
	o.releaseWindows()
}

// releaseWindows frees the windowed-merge resources of one group.
func (o *crowdOrderByOp) releaseWindows() {
	if o.winIter != nil {
		o.winIter.Close()
		o.winIter = nil
	}
	if o.winSorter != nil {
		o.winSorter.Close()
		o.winSorter = nil
	}
	o.winIdx = 0
}

// groupKey is the tuple's machine-sortable prefix key (paper §5's
// ORDER BY name, quality(img)); empty GroupCols → one global group.
func (o *crowdOrderByOp) groupKey(t relation.Tuple) (string, error) {
	key := ""
	for _, col := range o.node.GroupCols {
		v, ok := t.Get(col)
		if !ok {
			return "", fmt.Errorf("exec: ORDER BY column %q not found in %s", col, t.Schema())
		}
		key += v.String() + "\x00"
	}
	return key, nil
}

// start drains the input and splits it into groups by the prefix
// columns, ordered by group key. With a memory cap the split is an
// external stable sort on the key: the merged stream yields the same
// groups in the same order as the in-memory index, O(cap) at a time.
func (o *crowdOrderByOp) start(ctx context.Context) error {
	o.started = true
	cap := o.x.eng.Options.BreakerMemTuples
	if cap > 0 {
		// Hidden leading key column: computed once per tuple at drain
		// time, compared by payload during the external sort, stripped
		// when groups are cut.
		cols := append([]relation.Column{{Name: "\x00groupkey", Kind: relation.KindText}},
			o.child.Schema().Columns()...)
		keySchema, err := relation.NewSchema(cols...)
		if err != nil {
			return err
		}
		o.keySchema = keySchema
		less := func(a, b relation.Tuple) bool { return a.At(0).Text() < b.At(0).Text() }
		sorter, err := spill.NewSorter(keySchema, cap, less)
		if err != nil {
			return err
		}
		o.sorter = sorter
		for {
			b, err := o.child.Next(ctx)
			if err != nil {
				return err
			}
			if b == nil {
				break
			}
			for _, t := range b.Rows() {
				key, err := o.groupKey(t)
				if err != nil {
					return err
				}
				vals := make([]relation.Value, 0, t.Len()+1)
				vals = append(vals, relation.Text(key))
				for c := 0; c < t.Len(); c++ {
					vals = append(vals, t.At(c))
				}
				kt, err := relation.NewTuple(keySchema, vals...)
				if err != nil {
					return err
				}
				if err := o.sorter.Add(kt); err != nil {
					return err
				}
			}
			if b.Ready > o.clock {
				o.clock = b.Ready
			}
		}
		if cr := readyOf(o.child); cr > o.clock {
			o.clock = cr
		}
		it, err := o.sorter.Sort()
		if err != nil {
			return err
		}
		o.iter = it
		return nil
	}

	in, ready, err := drainRelation(ctx, o.child)
	if err != nil {
		return err
	}
	o.clock = ready
	type group struct {
		key  string
		rows []int
	}
	var groups []group
	idx := map[string]int{}
	for i := 0; i < in.Len(); i++ {
		key, err := o.groupKey(in.Row(i))
		if err != nil {
			return err
		}
		gi, ok := idx[key]
		if !ok {
			gi = len(groups)
			idx[key] = gi
			groups = append(groups, group{key: key})
		}
		groups[gi].rows = append(groups[gi].rows, i)
	}
	sort.SliceStable(groups, func(a, b int) bool { return groups[a].key < groups[b].key })
	for _, g := range groups {
		sub := relation.New(in.Name(), in.Schema())
		for _, ri := range g.rows {
			if err := sub.Append(in.Row(ri)); err != nil {
				return err
			}
		}
		o.groups = append(o.groups, sub)
	}
	return nil
}

// nextGroup returns the next crowd-sort unit and whether the current
// group continues past it: a whole group normally, or — with
// Options.SplitSortGroups on the spilled path — the group's next
// window of at most BreakerMemTuples tuples (more=true until the
// group's last window). nil at end of input.
func (o *crowdOrderByOp) nextGroup() (sub *relation.Relation, more bool, err error) {
	if o.sorter == nil {
		if o.gi >= len(o.groups) {
			return nil, false, nil
		}
		g := o.groups[o.gi]
		o.groups[o.gi] = nil
		return g, false, nil
	}
	// Spilled path: cut the next run of equal keys from the merged
	// stream, holding back the first tuple of the following group (or
	// the current group's next window). The hidden key column (ordinal
	// 0) is stripped as rows re-enter the child schema.
	winCap := 0
	if o.x.eng.Options.SplitSortGroups {
		winCap = o.x.eng.Options.BreakerMemTuples
	}
	first := o.peek
	o.peek = nil
	if first == nil {
		t, ok, err := o.iter.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			return nil, false, nil
		}
		first = &t
	}
	key := first.At(0).Text()
	sub = relation.New(o.child.Name(), o.child.Schema())
	if err := sub.Append(o.stripKey(*first)); err != nil {
		return nil, false, err
	}
	for {
		t, ok, err := o.iter.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			return sub, false, nil
		}
		if t.At(0).Text() != key {
			o.peek = &t
			return sub, false, nil
		}
		if winCap > 0 && sub.Len() >= winCap {
			o.peek = &t
			return sub, true, nil
		}
		if err := sub.Append(o.stripKey(t)); err != nil {
			return nil, false, err
		}
	}
}

// replanGroup observes the settled group's true size (fed to the stats
// store for the next run's per-group estimates) and — when mid-run
// re-optimization is on — re-costs the group's sort interface against
// that size: a group much larger than the optimizer assumed can make
// rating strictly cheaper than the comparison cover, so the group
// switches Compare→Rate when rating's quality also clears
// Options.Replan.MinQuality. The decision reads only the materialized
// group, so it is identical at any ExecBatch/StreamChunkHITs setting;
// durable runs checkpoint it for resume verification.
func (o *crowdOrderByOp) replanGroup(sub *relation.Relation, path string) (plan.SortPhys, error) {
	phys := o.phys
	n := sub.Len()
	o.x.observe(o.node.Label(), o.node.Task.Name, obstats.KindGroupSize, float64(n), 1)
	repl := o.x.eng.Options.Replan
	if !repl.Enabled || phys.Method != core.SortCompare || n < 2 {
		return phys, nil
	}
	s := phys.GroupSize
	if s < 2 {
		s = 2
	}
	// Exact cover size where the enumeration is cheap; the analytic
	// approximation beyond that (matching the optimizer's own split).
	compareHITs := cost.CompareSortHITs(n, s)
	if n <= 120 {
		compareHITs = len(sortop.CoverGroups(n, s))
	}
	rateBatch := phys.RateBatch
	if rateBatch <= 0 {
		rateBatch = sortop.DefaultRateBatch
	}
	rateHITs := cost.RateSortHITs(n, rateBatch)
	if rateHITs < compareHITs && cost.QualityRateSort >= repl.MinQuality {
		phys.Method = core.SortRate
	}
	dig := fnvFold(0, uint64(n))
	dig = fnvFold(dig, uint64(compareHITs))
	dig = fnvFold(dig, uint64(rateHITs))
	var sw uint64
	if phys.Method == core.SortRate {
		sw = 1
	}
	dig = fnvFold(dig, sw)
	if err := o.x.checkpoint(ckptReplan, path, dig, o.clock); err != nil {
		return phys, err
	}
	return phys, nil
}

// stripKey drops the hidden leading key column.
func (o *crowdOrderByOp) stripKey(t relation.Tuple) relation.Tuple {
	vals := make([]relation.Value, 0, t.Len()-1)
	for c := 1; c < t.Len(); c++ {
		vals = append(vals, t.At(c))
	}
	out, err := relation.NewTuple(o.child.Schema(), vals...)
	if err != nil {
		// The keyed tuple was built from this schema's values; a
		// mismatch here is a programming error.
		panic(err)
	}
	return out
}

// addScoredWindow feeds one crowd-sorted window into the group's merge
// sorter. Each row carries a hidden leading rank column — its position
// in the window's emission order, normalized to (0,1) by window size —
// so the external merge interleaves windows proportionally; equal ranks
// keep window order via the sorter's stable run tie-breaks.
func (o *crowdOrderByOp) addScoredWindow(sub *relation.Relation, order []int) error {
	if o.winSorter == nil {
		cols := append([]relation.Column{{Name: "\x00rank", Kind: relation.KindFloat}},
			o.child.Schema().Columns()...)
		rankSchema, err := relation.NewSchema(cols...)
		if err != nil {
			return err
		}
		o.rankSchema = rankSchema
		less := func(a, b relation.Tuple) bool { return a.At(0).Float() < b.At(0).Float() }
		ws, err := spill.NewSorter(rankSchema, o.x.eng.Options.BreakerMemTuples, less)
		if err != nil {
			return err
		}
		o.winSorter = ws
	}
	m := float64(len(order) + 1)
	for pos, ri := range order {
		t := sub.Row(ri)
		vals := make([]relation.Value, 0, t.Len()+1)
		vals = append(vals, relation.Float(float64(pos+1)/m))
		for c := 0; c < t.Len(); c++ {
			vals = append(vals, t.At(c))
		}
		rt, err := relation.NewTuple(o.rankSchema, vals...)
		if err != nil {
			return err
		}
		if err := o.winSorter.Add(rt); err != nil {
			return err
		}
	}
	return nil
}

// stripRank drops the hidden leading rank column.
func (o *crowdOrderByOp) stripRank(t relation.Tuple) relation.Tuple {
	vals := make([]relation.Value, 0, t.Len()-1)
	for c := 1; c < t.Len(); c++ {
		vals = append(vals, t.At(c))
	}
	out, err := relation.NewTuple(o.child.Schema(), vals...)
	if err != nil {
		panic(err)
	}
	return out
}

func (o *crowdOrderByOp) Next(ctx context.Context) (*Batch, error) {
	if !o.started {
		if err := o.start(ctx); err != nil {
			return nil, err
		}
	}
	for {
		// Emit the current sorted group in bounded batches.
		if len(o.pending) > 0 {
			n := o.size
			if n <= 0 || n > len(o.pending) {
				n = len(o.pending)
			}
			b := batchOfTuples(o.Schema(), o.pending[:n], o.clock)
			o.pending = o.pending[n:]
			return b, nil
		}
		// Drain a completed windowed merge in bounded batches.
		if o.winIter != nil {
			n := o.size
			if n <= 0 {
				n = 1 << 30
			}
			cols := relation.NewColumnBatch(o.Schema(), o.size)
			for cols.Len() < n {
				t, ok, err := o.winIter.Next()
				if err != nil {
					cols.Release()
					return nil, err
				}
				if !ok {
					o.releaseWindows()
					break
				}
				cols.AppendTuple(o.stripRank(t))
			}
			if cols.Len() > 0 {
				return newBatch(cols, o.clock), nil
			}
			cols.Release()
			continue
		}
		if o.closed {
			return nil, nil
		}
		sub, more, err := o.nextGroup()
		if err != nil {
			return nil, err
		}
		if sub == nil {
			o.release()
			return nil, nil
		}
		// An oversized group's windows sort under per-window paths (so
		// checkpoints and HIT group IDs stay unique and count-derived);
		// the group index advances only when the group completes.
		windowed := more || o.winSorter != nil
		var path string
		if windowed {
			path = fmt.Sprintf("%s.g%d.w%d", o.path, o.gi, o.winIdx)
			o.winIdx++
		} else {
			path = fmt.Sprintf("%s.g%d", o.path, o.gi)
		}
		if !more {
			o.gi++
		}
		phys, err := o.replanGroup(sub, path)
		if err != nil {
			return nil, err
		}
		order, done, err := o.x.crowdSort(ctx, sub, o.node, phys, path, o.clock)
		if err != nil {
			return nil, err
		}
		// Durable runs checkpoint each settled group (or window): the
		// breaker's materialized rows plus the crowd-resolved
		// permutation.
		if err := o.x.checkpoint(ckptSortGroup, path, digestSortGroup(order, sub), done); err != nil {
			return nil, err
		}
		if done > o.clock {
			o.clock = done
		}
		if o.node.Desc {
			for i, k := 0, len(order)-1; i < k; i, k = i+1, k-1 {
				order[i], order[k] = order[k], order[i]
			}
		}
		if windowed {
			if err := o.addScoredWindow(sub, order); err != nil {
				return nil, err
			}
			if more {
				continue
			}
			// Last window: merge the group's sub-sorts externally.
			it, err := o.winSorter.Sort()
			if err != nil {
				return nil, err
			}
			o.winIter = it
			continue
		}
		o.pending = make([]relation.Tuple, 0, len(order))
		for _, ri := range order {
			o.pending = append(o.pending, sub.Row(ri))
		}
	}
}

type machineOrderByOp struct {
	node    *plan.MachineOrderBy
	child   Operator
	size    int
	cap     int
	closed  bool
	started bool
	out     *scanOp
	spilled *spill.Iter
	sorter  *spill.Sorter
	ready   float64
}

func (o *machineOrderByOp) Schema() *relation.Schema { return o.child.Schema() }
func (o *machineOrderByOp) Name() string             { return o.child.Name() }
func (o *machineOrderByOp) OpLabel() string          { return o.node.Label() }
func (o *machineOrderByOp) Inputs() []Operator       { return []Operator{o.child} }

// Breakers implements BreakerDetail.
func (o *machineOrderByOp) Breakers() []BreakerInfo {
	note := "materializes input before sorting"
	if o.cap > 0 {
		note = "external merge sort over spilled runs"
	}
	return []BreakerInfo{{Kind: BreakerSortInput, MemTuples: o.cap, Spills: o.cap > 0, Note: note}}
}

// BreakerNote implements Breaker.
func (o *machineOrderByOp) BreakerNote() string { return breakerNote(o.Breakers()) }

func (o *machineOrderByOp) finalReady() float64 { return o.ready }

func (o *machineOrderByOp) Close() {
	if !o.closed {
		o.closed = true
		o.child.Close()
		o.releaseSpill()
	}
}

func (o *machineOrderByOp) releaseSpill() {
	if o.spilled != nil {
		o.spilled.Close()
		o.spilled = nil
	}
	if o.sorter != nil {
		o.sorter.Close()
		o.sorter = nil
	}
}

// less is the ORDER BY comparison over the machine columns.
func (o *machineOrderByOp) less(a, b relation.Tuple) bool {
	for i, col := range o.node.Cols {
		cmp := a.MustGet(col).Compare(b.MustGet(col))
		if cmp == 0 {
			continue
		}
		if o.node.Desc[i] {
			return cmp > 0
		}
		return cmp < 0
	}
	return false
}

func (o *machineOrderByOp) Next(ctx context.Context) (*Batch, error) {
	if !o.started {
		o.started = true
		for _, col := range o.node.Cols {
			if !o.child.Schema().Has(col) {
				return nil, fmt.Errorf("exec: ORDER BY column %q not found", col)
			}
		}
		if o.cap > 0 {
			sorter, err := spill.NewSorter(o.child.Schema(), o.cap, o.less)
			if err != nil {
				return nil, err
			}
			o.sorter = sorter
			for {
				b, err := o.child.Next(ctx)
				if err != nil {
					return nil, err
				}
				if b == nil {
					break
				}
				for _, t := range b.Rows() {
					if err := o.sorter.Add(t); err != nil {
						return nil, err
					}
				}
				if b.Ready > o.ready {
					o.ready = b.Ready
				}
			}
			if cr := readyOf(o.child); cr > o.ready {
				o.ready = cr
			}
			it, err := o.sorter.Sort()
			if err != nil {
				return nil, err
			}
			o.spilled = it
		} else {
			in, ready, err := drainRelation(ctx, o.child)
			if err != nil {
				return nil, err
			}
			o.out = newScanOp(in.SortBy(o.less), o.size)
			o.ready = ready
		}
	}
	if o.closed {
		return nil, nil
	}
	if o.cap > 0 {
		if o.spilled == nil {
			return nil, nil
		}
		n := o.size
		if n <= 0 {
			n = 1 << 30
		}
		cols := relation.NewColumnBatch(o.child.Schema(), o.size)
		for cols.Len() < n {
			t, ok, err := o.spilled.Next()
			if err != nil {
				return nil, err
			}
			if !ok {
				o.releaseSpill()
				break
			}
			cols.AppendTuple(t)
		}
		if cols.Len() == 0 {
			cols.Release()
			return nil, nil
		}
		return newBatch(cols, o.ready), nil
	}
	b, err := o.out.Next(ctx)
	if b != nil {
		b.Ready = o.ready
	}
	return b, err
}
