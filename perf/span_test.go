package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"st4ml/internal/trace"
)

// recorded is a span set shaped like a traced routed query: a root, a
// handler, a router query with two concurrent RPCs, and under the first a
// shard's span dump whose partition fetch was recorded under the sub-query
// although it ran inside the stage's engine task.
func recorded() *opTrace {
	t := &opTrace{}
	root := t.add(0, "request", layerUnattributed, 0, 1000)
	h := t.add(root, "handler", layerUnattributed, 100, 900)
	q := t.add(h, "scatter", layerCluster, 200, 900)
	a := t.add(q, "rpc:shard", layerCluster, 300, 700)
	t.add(q, "rpc:shard", layerCluster, 300, 500)
	from := len(t.spans)
	sub := t.add(a, "subquery", layerCluster, 350, 650)
	stage := t.add(sub, "stage:serve", "", 400, 600)
	t.add(stage, "task", "", 400, 600)
	t.add(sub, "partition:fetch", layerServe, 450, 550)
	t.nestInner(from)
	return t
}

func TestFoldSumsToWallTime(t *testing.T) {
	f, err := fold(recorded().spans)
	if err != nil {
		t.Fatal(err)
	}
	if f.wall != 1000 || f.residual() != 0 {
		t.Fatalf("wall %d residual %d, want 1000 and 0", f.wall, f.residual())
	}
	// Leaves by instant: [0,100) request; [100,200) handler; [200,300)
	// scatter; [300,350) both RPCs; [350,400) sub-query and second RPC;
	// [400,450) task and second RPC; [450,500) fetch and second RPC;
	// [500,550) fetch; [550,600) task; [600,650) sub-query; [650,700)
	// first RPC; [700,900) scatter; [900,1000) request.
	wantSelf := map[string]int64{
		"request": 200, "handler": 100, "scatter": 300, "rpc:shard": 175,
		"subquery": 75, "stage:serve": 0, "task": 75, "partition:fetch": 75,
	}
	var sum int64
	for name, v := range f.self {
		sum += v
		if v != wantSelf[name] {
			t.Errorf("%s self %d, want %d", name, v, wantSelf[name])
		}
	}
	if sum != f.wall {
		t.Errorf("self times sum to %d, want the wall time %d", sum, f.wall)
	}
	wantLayers := map[string]int64{layerUnattributed: 300, layerCluster: 625, layerServe: 75}
	for l, v := range f.layers {
		if v != wantLayers[l] {
			t.Errorf("layer %s %d, want %d", l, v, wantLayers[l])
		}
	}
	if f.incl["rpc:shard"] != 600 || f.count["rpc:shard"] != 2 {
		t.Errorf("rpc:shard inclusive %d over %d spans, want 600 over 2", f.incl["rpc:shard"], f.count["rpc:shard"])
	}
}

func TestNestInnerMovesWorkIntoItsTask(t *testing.T) {
	tr := recorded()
	byName := map[string]span{}
	for _, s := range tr.spans {
		byName[s.name] = s
	}
	if got, want := byName["partition:fetch"].parent, byName["task"].id; got != want {
		t.Fatalf("fetch parent %d, want the task %d", got, want)
	}
	// Spans outside the dump keep their recorded parents.
	if byName["rpc:shard"].parent != byName["scatter"].id {
		t.Fatalf("rpc re-parented outside the dump")
	}
}

func TestFoldClipsChildrenToParents(t *testing.T) {
	tr := &opTrace{}
	root := tr.add(0, "op", layerUnattributed, 0, 100)
	c := tr.add(root, "late", layerStorage, 50, 400) // reported duration overruns
	tr.add(c, "inner", layerIndex, 90, 300)
	f, err := fold(tr.spans)
	if err != nil {
		t.Fatal(err)
	}
	if f.wall != 100 || f.residual() != 0 || f.layers[layerStorage] != 40 || f.layers[layerIndex] != 10 {
		t.Fatalf("wall %d residual %d storage %d index %d, want 100 0 40 10",
			f.wall, f.residual(), f.layers[layerStorage], f.layers[layerIndex])
	}
}

func TestFoldRejectsMalformedSets(t *testing.T) {
	cases := map[string][]span{
		"no root":        {{id: 1, parent: 2, layer: layerServe}, {id: 2, parent: 1, layer: layerServe}},
		"two roots":      {{id: 1, layer: layerServe}, {id: 2, layer: layerServe}},
		"unknown parent": {{id: 1, layer: layerServe}, {id: 2, parent: 9}},
		"root layer":     {{id: 1}},
		"duplicate id":   {{id: 1, layer: layerServe}, {id: 1, parent: 1}},
	}
	for name, spans := range cases {
		if _, err := fold(spans); err == nil || !strings.HasPrefix(err.Error(), "fold:") {
			t.Errorf("%s: got %v, want a fold error", name, err)
		}
	}
}

// TestIngestOpFoldsToWallTime folds a recorded ingest-serve op: an append,
// a compaction and two dashboard queries, one traced. The layers must sum
// to the op's wall time with the stated residual of 0 ns, the write path
// must land on storage, the traced query's wall on serve, and the rest on
// unattributed: no load is laid into the fold from the replay.
func TestIngestOpFoldsToWallTime(t *testing.T) {
	rep := &queryReply{ElapsedMS: 3, Explain: &trace.Explain{
		WallMS: 2.5, AdmissionWaitMS: 0.1, PartitionLoads: 1,
		Stages: []trace.StageExplain{{Name: "serve", WallMS: 2}},
	}}
	op := ingestOp{
		sample:   opSample{start: 1_000_000, end: 40_000_000},
		appendD:  12 * time.Millisecond,
		compactD: 20 * time.Millisecond,
		queries: []dashQuery{
			{start: 33_000_000, end: 37_000_000, rep: rep},
			{start: 37_000_000, end: 39_000_000},
		},
	}
	f, err := foldAll([]*opTrace{ingestOpTrace(op)})
	if err != nil {
		t.Fatal(err)
	}
	if f.wall != 39_000_000 || f.residual() != 0 {
		t.Fatalf("wall %d residual %d, want 39000000 and 0", f.wall, f.residual())
	}
	want := map[string]int64{layerStorage: 32_000_000, layerServe: 2_500_000, layerUnattributed: 4_500_000, layerIndex: 0}
	for l, ns := range want {
		if got := f.layers[l]; got != ns {
			t.Errorf("%s %d ns, want %d", l, got, ns)
		}
	}

	// The replayed costs become the load metrics directly: the traced
	// queries' loads times the replay's medians.
	r := newResult()
	lc := loadCost{load: time.Millisecond, read: 300 * time.Microsecond, build: 600 * time.Microsecond}
	r.setReplayLayers(lc, []tracedQuery{{rep: rep}, {rep: rep}}, 1)
	for name, v := range map[string]float64{"serve.partition_load_ms": 1, "storage.read_ms": 0.6, "index.rtree_build_ms": 1.2} {
		if got := r.layers[name]; math.Abs(got-v) > 1e-12 {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
}
