package main

import (
	"fmt"
	"sort"
)

// Layers are the repository's modules a traced run charges time to, plus
// the bucket for time no span covers.
const (
	layerServe        = "serve"
	layerCluster      = "cluster"
	layerStorage      = "storage"
	layerIndex        = "index"
	layerSelection    = "selection"
	layerConvert      = "convert"
	layerExtract      = "extract"
	layerEngine       = "engine"
	layerUnattributed = "unattributed"
)

var allLayers = []string{
	layerServe, layerCluster, layerStorage, layerIndex,
	layerSelection, layerConvert, layerExtract, layerEngine,
}

// span is one interval of a traced operation: either a call the benchmark
// timed around a public function, or an interval rebuilt from a span the
// program reported (an explain report, a shard's wire span dump). IDs are
// local to one operation; parent 0 marks the operation's root. An empty
// layer inherits the parent's, so an engine stage or task charges its time
// to the module whose work it runs.
type span struct {
	id, parent int
	name       string
	layer      string
	start, end int64 // nanoseconds from any origin shared by the operation
}

// opTrace builds the span tree of one operation.
type opTrace struct {
	spans []span
}

// add records a span under parent and returns its id.
func (t *opTrace) add(parent int, name, layer string, start, end int64) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{id: id, parent: parent, name: name, layer: layer, start: start, end: end})
	return id
}

// foldResult is one operation's (or a sum of operations') time, split by
// span name and by layer.
type foldResult struct {
	ops    int64
	wall   int64            // root durations
	self   map[string]int64 // self time by span name
	incl   map[string]int64 // inclusive duration by span name
	count  map[string]int64 // spans by name
	layers map[string]int64 // self time by layer
}

func newFoldResult() foldResult {
	return foldResult{
		self: map[string]int64{}, incl: map[string]int64{},
		count: map[string]int64{}, layers: map[string]int64{},
	}
}

// merge adds o into f.
func (f *foldResult) merge(o foldResult) {
	f.ops += o.ops
	f.wall += o.wall
	for k, v := range o.self {
		f.self[k] += v
	}
	for k, v := range o.incl {
		f.incl[k] += v
	}
	for k, v := range o.count {
		f.count[k] += v
	}
	for k, v := range o.layers {
		f.layers[k] += v
	}
}

// residual is the gap between the root durations and the layer self times
// charged. The fold works in whole nanoseconds and charges every instant of
// the root exactly once, so this is 0 by construction; a non-zero value is
// a fold bug and fails the run.
func (f foldResult) residual() int64 {
	var sum int64
	for _, v := range f.layers {
		sum += v
	}
	return f.wall - sum
}

// fold charges every nanosecond of an operation's root span to the spans
// active at that instant that have no active child, split evenly (in whole
// nanoseconds, the remainder to the earliest-recorded span) when several
// run concurrently. A span therefore keeps as self time its duration minus
// the part its children cover, concurrent branches share the instants they
// overlap, and the self times of the operation sum to the root's duration
// exactly. Children are clipped to their parent's interval first, so an
// interval rebuilt from a reported duration can never charge time outside
// the operation.
func fold(spans []span) (foldResult, error) {
	res := newFoldResult()
	byID := make(map[int]int, len(spans))
	root := -1
	for i, s := range spans {
		if _, dup := byID[s.id]; dup || s.id == 0 {
			return res, fmt.Errorf("fold: bad or duplicate span id %d", s.id)
		}
		byID[s.id] = i
		if s.parent == 0 {
			if root >= 0 {
				return res, fmt.Errorf("fold: two roots (%q, %q)", spans[root].name, s.name)
			}
			root = i
		}
	}
	if root < 0 {
		return res, fmt.Errorf("fold: no root span")
	}
	if spans[root].layer == "" {
		return res, fmt.Errorf("fold: root span %q has no layer", spans[root].name)
	}

	// Resolve parent index, layer and clipped interval parents-first.
	n := len(spans)
	parent := make([]int, n)
	layer := make([]string, n)
	lo := make([]int64, n)
	hi := make([]int64, n)
	state := make([]uint8, n) // 0 unvisited, 1 in progress, 2 done
	var resolve func(i int) error
	resolve = func(i int) error {
		switch state[i] {
		case 2:
			return nil
		case 1:
			return fmt.Errorf("fold: parent cycle at span %q", spans[i].name)
		}
		state[i] = 1
		s := spans[i]
		lo[i], hi[i], layer[i], parent[i] = s.start, s.end, s.layer, -1
		if s.parent != 0 {
			p, ok := byID[s.parent]
			if !ok {
				return fmt.Errorf("fold: span %q has unknown parent %d", s.name, s.parent)
			}
			if err := resolve(p); err != nil {
				return err
			}
			parent[i] = p
			if layer[i] == "" {
				layer[i] = layer[p]
			}
			lo[i] = max(lo[i], lo[p])
			hi[i] = min(hi[i], hi[p])
		}
		if hi[i] < lo[i] {
			hi[i] = lo[i]
		}
		state[i] = 2
		return nil
	}
	for i := range spans {
		if err := resolve(i); err != nil {
			return res, err
		}
	}

	type event struct {
		at    int64
		i     int
		start bool
	}
	events := make([]event, 0, 2*n)
	for i := range spans {
		res.count[spans[i].name]++
		res.incl[spans[i].name] += hi[i] - lo[i]
		if hi[i] > lo[i] {
			events = append(events, event{lo[i], i, true}, event{hi[i], i, false})
		}
	}
	sort.Slice(events, func(a, b int) bool {
		if events[a].at != events[b].at {
			return events[a].at < events[b].at
		}
		return !events[a].start && events[b].start
	})

	active := make([]int, 0, 16)
	leaves := make([]int, 0, 16)
	kids := make([]int, n) // active children per span
	selfNS := make([]int64, n)
	var prev int64
	for k := 0; k < len(events); {
		at := events[k].at
		if len(active) > 0 && at > prev {
			leaves = leaves[:0]
			for _, i := range active {
				if kids[i] == 0 {
					leaves = append(leaves, i)
				}
			}
			sort.Ints(leaves)
			d := at - prev
			share := d / int64(len(leaves))
			for j, i := range leaves {
				selfNS[i] += share
				if j == 0 {
					selfNS[i] += d - share*int64(len(leaves))
				}
			}
		}
		// Ends before starts at one instant, so a span starting where its
		// sibling ends is never counted as that sibling's child.
		for ; k < len(events) && events[k].at == at; k++ {
			e := events[k]
			if e.start {
				active = append(active, e.i)
				if p := parent[e.i]; p >= 0 {
					kids[p]++
				}
				continue
			}
			for j, i := range active {
				if i == e.i {
					active = append(active[:j], active[j+1:]...)
					break
				}
			}
			if p := parent[e.i]; p >= 0 {
				kids[p]--
			}
		}
		prev = at
	}

	res.ops = 1
	res.wall = hi[root] - lo[root]
	for i, v := range selfNS {
		res.self[spans[i].name] += v
		res.layers[layer[i]] += v
	}
	return res, nil
}

// nestInner re-parents the spans recorded by the program (those added
// from index from on) by time: each moves under the innermost recorded
// span that contains its interval and descends from its recorded parent.
// Program code often starts spans from a context scoped above where the
// time is spent: a partition read under its select span although it runs
// inside one of the stage's engine tasks, a cache load under the query
// although it runs inside the fetch. The recorded parent is logical; the
// containing span is where the time went, and without the move the fold
// would count a task and the work inside it as two concurrent leaves.
func (t *opTrace) nestInner(from int) {
	idx := make(map[int]int, len(t.spans))
	for i, s := range t.spans {
		idx[s.id] = i
	}
	// below reports whether span i strictly descends from the span with id anc.
	below := func(i, anc int) bool {
		for p := t.spans[i].parent; p != 0; p = t.spans[idx[p]].parent {
			if p == anc {
				return true
			}
		}
		return false
	}
	for i := from; i < len(t.spans); i++ {
		s := &t.spans[i]
		best := -1
		for j := from; j < len(t.spans); j++ {
			c := t.spans[j]
			if j == i || c.start > s.start || c.end < s.end || below(j, s.id) || !below(j, s.parent) {
				continue
			}
			d := c.end - c.start
			if best < 0 {
				best = j
				continue
			}
			// Innermost: the shortest container, the deeper of two equal ones.
			if bd := t.spans[best].end - t.spans[best].start; d < bd || (d == bd && below(j, t.spans[best].id)) {
				best = j
			}
		}
		if best >= 0 {
			s.parent = t.spans[best].id
		}
	}
}
