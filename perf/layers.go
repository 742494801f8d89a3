package main

import (
	"fmt"
	"time"

	"st4ml/internal/engine"
	"st4ml/internal/index"
	"st4ml/internal/selection"
	"st4ml/internal/serve"
	"st4ml/internal/stdata"
	"st4ml/internal/storage"
	"st4ml/internal/trace"
)

// loadCost is the replayed cost of one partition read, split the way
// Schema.LoadPartition spends it on a serving cache miss.
type loadCost struct {
	load, read, build time.Duration // medians per read; load only for whole-partition reads
	readKB, buildKB   float64       // heap allocated per read and per build, medians
	items             float64       // records per R-tree build
	samples           int
}

// partRead is one partition read a replay repeats: the partition and the
// boxes the read is pruned to (nil reads it whole, as a cache miss does).
type partRead struct {
	id    int
	boxes []index.Box
}

// replayReads repeats up to limit of the given reads of the nyc events
// under dir through the public calls the program makes for them:
// storage.ReadPartitionPruned, then index.BulkLoadSTR over the records it
// returned, timing each and measuring the heap each allocates; a
// whole-partition read is also timed as one Schema.LoadPartition, the call
// a serving cache miss makes. It runs on one goroutine after the timed
// window, while the program is idle, so it perturbs nothing the window
// measured and its allocation deltas are its own. Its figures are the
// idle costs of one read, not the costs under load.
func replayReads(dir string, reads []partRead, limit int) (loadCost, error) {
	meta, err := storage.ReadMetadata(dir)
	if err != nil {
		return loadCost{}, err
	}
	sch, _ := stdata.Lookup("nyc")
	var loadNS, readNS, buildNS, readKB, buildKB, items []float64
	for _, pr := range reads[:min(limit, len(reads))] {
		if pr.boxes == nil {
			t0 := time.Now()
			if _, _, err := sch.LoadPartition(dir, meta, pr.id); err != nil {
				return loadCost{}, err
			}
			loadNS = append(loadNS, float64(time.Since(t0)))
		}
		t1 := time.Now()
		a0 := heapAllocs()
		recs, _, err := storage.ReadPartitionPruned(dir, meta, pr.id, stdata.EventRecC, pr.boxes)
		if err != nil {
			return loadCost{}, err
		}
		a1 := heapAllocs()
		t2 := time.Now()
		its := make([]index.Item[int], len(recs))
		for i, r := range recs {
			its[i] = index.Item[int]{Box: r.Box(), Data: i}
		}
		a2 := heapAllocs()
		index.BulkLoadSTR(its, 16)
		a3 := heapAllocs()
		t3 := time.Now()
		readNS = append(readNS, float64(t2.Sub(t1)))
		buildNS = append(buildNS, float64(t3.Sub(t2)))
		readKB = append(readKB, float64(a1-a0)/1024)
		buildKB = append(buildKB, float64(a3-a2)/1024)
		items = append(items, float64(len(recs)))
	}
	return loadCost{
		load: time.Duration(median(loadNS)), read: time.Duration(median(readNS)),
		build: time.Duration(median(buildNS)), readKB: median(readKB), buildKB: median(buildKB),
		items: mean(items), samples: len(readNS),
	}, nil
}

// loadedPartitions lists, for the traced replies that loaded partitions,
// as many of each window's pruned partitions as it loaded, as whole
// reads: the partitions whose load cost the replay samples. Explain reports
// how many partitions a query loaded, not which, and T-STR partitions are
// near-equal in size.
func loadedPartitions(meta *storage.Metadata, qs []tracedQuery) []partRead {
	seen := map[int]bool{}
	var out []partRead
	for _, q := range qs {
		if q.rep.Explain == nil || q.rep.Explain.PartitionLoads == 0 {
			continue
		}
		pruned := meta.Prune(q.window.Space, q.window.Time)
		for _, id := range pruned[:min(int(q.rep.Explain.PartitionLoads), len(pruned))] {
			if !seen[id] {
				seen[id] = true
				out = append(out, partRead{id: id})
			}
		}
	}
	return out
}

// serveOpTrace builds one single-daemon query's span tree: the client's
// latency as the root, the explain report's spans under it.
func serveOpTrace(s opSample, rep *queryReply) *opTrace {
	t := &opTrace{}
	root := t.add(0, "request", layerUnattributed, 0, s.end-s.start)
	t.addQueryTrace(root, 0, rep)
	return t
}

// addQueryTrace adds under parent, from start, the spans of one query's
// explain report: the query wall (serve), and inside it the admission wait
// and the engine stages in turn. The stages are charged to serve too: they
// run the query's partition fetches, cache loads and scans, whose time the
// report does not split out. The report gives durations, not offsets, so
// each span starts where the one before it ended; none overlaps another,
// so the fold's self times are measured durations minus their children's
// whatever the offsets. What the client timed beyond the query wall (the
// HTTP and JSON edge, the handler outside the query) stays with parent.
func (t *opTrace) addQueryTrace(parent int, start int64, rep *queryReply) {
	ex := rep.Explain
	if ex == nil {
		return
	}
	q := t.add(parent, "query", layerServe, start, start+int64(ex.WallMS*1e6))
	cursor := start + int64(ex.AdmissionWaitMS*1e6)
	t.add(q, trace.SpanAdmission, layerServe, start, cursor)
	for _, st := range ex.Stages {
		sw := int64(st.WallMS * 1e6)
		t.add(q, trace.SpanStagePrefix+st.Name, "", cursor, cursor+sw)
		cursor += sw
	}
}

// wireLayer maps a span name the program reports to the module it
// measures; "" inherits the parent's (engine stages and tasks run the work
// of whoever started them).
func wireLayer(name string) string {
	switch {
	case name == trace.SpanSubquery || name == trace.SpanScatter || name == trace.SpanRPC:
		return layerCluster
	case name == trace.SpanResultLookup || name == trace.SpanAdmission || name == trace.SpanSelect ||
		name == trace.SpanPartitionFetch || name == trace.SpanPartitionLoad:
		return layerServe
	case name == trace.SpanPartitionRead || name == trace.SpanDeltaRead || name == trace.SpanCompact:
		return layerStorage
	case name == trace.SpanRTreeBuild:
		return layerIndex
	case name == trace.SpanShuffleWrite || name == trace.SpanShuffleRead:
		return layerEngine
	}
	return ""
}

// graft adds a span dump the program recorded to the op's tree, each span
// moved by shift onto the op's clock: a root of the dump under
// rootParent(its start), every other span under its recorded parent, each
// in the layer layerOf gives its name. The spans are then re-nested by
// time (nestInner).
func (t *opTrace) graft(spans []trace.WireSpan, shift int64, rootParent func(start int64) int, layerOf func(string) string) {
	from := len(t.spans)
	ids := make(map[uint64]int, len(spans))
	// Parents precede children in a dump only by accident, so add in
	// passes until every span whose parent is placed has been added.
	added := make([]bool, len(spans))
	for progress := true; progress; {
		progress = false
		for k, s := range spans {
			if added[k] {
				continue
			}
			start := s.StartNS + shift
			var pid int
			if s.Parent == 0 {
				pid = rootParent(start)
			} else if p, ok := ids[s.Parent]; ok {
				pid = p
			} else {
				continue
			}
			ids[s.ID] = t.add(pid, s.Name, layerOf(s.Name), start, start+s.DurNS)
			added[k], progress = true, true
		}
	}
	t.nestInner(from)
}

// graftWire adds a shard's wire span dump under an RPC span that ran from
// p0 to p1, centred in it: the dump keeps its own measured timing, and
// only its offset inside the RPC (request and response transfer on either
// side) is unknown.
func graftWire(t *opTrace, parent int, p0, p1 int64, spans []trace.WireSpan) {
	var rootStart, rootDur int64
	for _, s := range spans {
		if s.Parent == 0 {
			rootStart, rootDur = s.StartNS, s.DurNS
		}
	}
	shift := p0 + ((p1-p0)-rootDur)/2 - rootStart
	t.graft(spans, shift, func(int64) int { return parent }, wireLayer)
}

// routedOpTrace rebuilds one routed query's span tree: the client's
// latency as the root; the router's query span (explain wall, charged to
// cluster as the scatter: plan, fan-out and merge) from the root's start;
// one rpc:shard span per shard RPC with its explain wall, all from the
// scatter's start, as the router fans them out together; and under each
// the span dump the shard returned for it.
func routedOpTrace(s opSample, rep *queryReply, dumps map[string][]trace.WireSpan) *opTrace {
	t := &opTrace{}
	root := t.add(0, "request", layerUnattributed, 0, s.end-s.start)
	ex := rep.Explain
	if ex == nil {
		return t
	}
	q := t.add(root, trace.SpanScatter, layerCluster, 0, int64(ex.WallMS*1e6))
	if ex.Scatter == nil {
		return t
	}
	for _, r := range ex.Scatter.RPCs {
		rw := int64(r.WallMS * 1e6)
		rid := t.add(q, trace.SpanRPC, layerCluster, 0, rw)
		graftWire(t, rid, 0, rw, dumps[r.Shard])
	}
	return t
}

// foldAll folds every traced op.
func foldAll(traces []*opTrace) (foldResult, error) {
	total := newFoldResult()
	for _, t := range traces {
		f, err := fold(t.spans)
		if err != nil {
			return total, err
		}
		total.merge(f)
	}
	if r := total.residual(); r != 0 {
		return total, fmt.Errorf("fold residual %d ns (stated residual: 0 ns)", r)
	}
	return total, nil
}

// setFoldLayers fills the per-op fold metrics.
func (r *result) setFoldLayers(f foldResult) {
	ops := float64(f.ops)
	per := func(ns int64) float64 { return ratio(float64(ns)/1e6, ops) }
	r.layers["wall_ms"] = per(f.wall)
	r.layers["unattributed_ms"] = per(f.layers[layerUnattributed])
	for _, l := range allLayers {
		r.layers[l+".self_ms"] = per(f.layers[l])
	}
	r.note("fold: %d traced ops, layers sum to wall time with a residual of %d ns (stated: 0 ns)", f.ops, f.residual())
}

// engineDelta is the difference of two engine.Metrics snapshots.
func engineDelta(a, b engine.Snapshot) engine.Snapshot {
	return engine.Snapshot{
		TasksRun:          b.TasksRun - a.TasksRun,
		TaskTime:          b.TaskTime - a.TaskTime,
		ShuffleBytes:      b.ShuffleBytes - a.ShuffleBytes,
		TaskRetries:       b.TaskRetries - a.TaskRetries,
		BlocksScanned:     b.BlocksScanned - a.BlocksScanned,
		BlocksPruned:      b.BlocksPruned - a.BlocksPruned,
		BytesDecompressed: b.BytesDecompressed - a.BytesDecompressed,
	}
}

func (r *result) setEngineLayers(d engine.Snapshot, ops float64) {
	r.layers["engine.tasks_per_op"] = ratio(float64(d.TasksRun), ops)
	r.layers["engine.task_ms_per_op"] = ratio(ms(d.TaskTime), ops)
	r.layers["engine.shuffle_bytes_per_op"] = ratio(float64(d.ShuffleBytes), ops)
	r.layers["engine.retries"] = float64(d.TaskRetries)
}

// tracedQuery is one traced query as the client saw it.
type tracedQuery struct {
	window selection.Window
	latMS  float64
	rep    *queryReply
	size   int // reply body bytes
}

// tracedQueries lists a serving phase's traced queries.
func (ph servingPhase) tracedQueries(windows []selection.Window) []tracedQuery {
	var out []tracedQuery
	for k, s := range ph.samples {
		if ph.replies[k] != nil {
			out = append(out, tracedQuery{window: windows[s.idx], latMS: s.latencyMS(), rep: ph.replies[k], size: ph.sizes[k]})
		}
	}
	return out
}

// setExplainLayers fills the metrics read off the traced replies' explain
// reports and bodies.
func (r *result) setExplainLayers(qs []tracedQuery) {
	var exec, edge, size, raw, scanned, pruned, deltas float64
	for _, q := range qs {
		exec += q.rep.ElapsedMS
		edge += q.latMS - q.rep.ElapsedMS
		size += float64(q.size)
		if ex := q.rep.Explain; ex != nil {
			raw += float64(ex.BytesDecompressed)
			scanned += float64(ex.BlocksScanned)
			pruned += float64(ex.BlocksPruned)
			deltas += float64(ex.DeltaFilesRead)
		}
	}
	n := float64(len(qs))
	r.layers["serve.exec_ms"] = ratio(exec, n)
	r.layers["serve.edge_ms"] = ratio(edge, n)
	r.layers["serve.response_bytes"] = ratio(size, n)
	r.layers["storage.raw_bytes_per_op"] = ratio(raw, n)
	r.layers["storage.blocks_pruned_frac"] = ratio(pruned, scanned+pruned)
	r.layers["storage.delta_files_per_query"] = ratio(deltas, n)
}

// setTraceOverhead compares the traced phase's op p50 with the untraced one.
func (r *result) setTraceOverhead(untraced, traced []float64) {
	base := median(untraced)
	r.layers["trace.overhead_frac"] = ratio(median(traced)-base, base)
}

// setServeLayers folds a single-daemon phase's traced queries and fills
// the metrics read off their spans and replies, and the replayed
// partition-load costs.
func (r *result) setServeLayers(ph servingPhase, qs []tracedQuery, lc loadCost) error {
	traces := make([]*opTrace, 0, len(ph.samples))
	for k, s := range ph.samples {
		if ph.replies[k] != nil {
			traces = append(traces, serveOpTrace(s, ph.replies[k]))
		}
	}
	f, err := foldAll(traces)
	if err != nil {
		return err
	}
	r.setFoldLayers(f)
	setServeFoldMetrics(r, f, float64(f.ops))
	r.setExplainLayers(qs)
	r.setReplayLayers(lc, qs, float64(f.ops))
	return nil
}

// setReplayLayers fills the partition-load metrics of a single-daemon
// workload. The explain report counts a query's cache loads but has no
// span for them, so each figure is the traced queries' loads times the
// replay's idle median cost of one load: an estimate of the cost under
// load, not a measurement of it.
func (r *result) setReplayLayers(lc loadCost, qs []tracedQuery, ops float64) {
	var loads float64
	for _, q := range qs {
		if q.rep.Explain != nil {
			loads += float64(q.rep.Explain.PartitionLoads)
		}
	}
	r.layers["serve.partition_load_ms"] = ratio(loads*ms(lc.load), float64(len(qs)))
	r.layers["storage.read_ms"] = ratio(loads*ms(lc.read), ops)
	r.layers["index.rtree_build_ms"] = ratio(loads*ms(lc.build), ops)
	r.layers["index.rtree_items"] = lc.items
	r.layers["storage.read_alloc_kb"] = lc.readKB
	r.layers["index.rtree_alloc_kb"] = lc.buildKB
	r.note("partition-load replay (idle, one goroutine): %d partitions, median load %.3f ms = read %.3f + build %.3f + rest; %.1f KiB read + %.1f KiB R-tree; %.0f loads in %.0f traced ops",
		lc.samples, ms(lc.load), ms(lc.read), ms(lc.build), lc.readKB, lc.buildKB, loads, ops)
}

// setServerCounters fills the metrics read off a daemon's /metrics.
func (r *result) setServerCounters(a, b serve.ServerStats) {
	queries := float64(b.Queries - a.Queries)
	hits, misses := float64(b.ResultHits-a.ResultHits), float64(b.ResultMisses-a.ResultMisses)
	r.layers["serve.result_hit_ratio"] = ratio(hits, hits+misses)
	r.layers["serve.loads_per_query"] = ratio(float64(b.PartitionLoads-a.PartitionLoads), queries)
}

// setServeFoldMetrics fills the metrics of spans the fold measured on
// the serving workloads: the admission wait every explain report gives,
// and the router's scatter, its shard RPCs and the shards' subqueries.
func setServeFoldMetrics(r *result, f foldResult, queries float64) {
	per := func(ns int64) float64 { return ratio(float64(ns)/1e6, float64(f.ops)) }
	r.layers["serve.admission_wait_ms"] = ratio(float64(f.self[trace.SpanAdmission])/1e6, queries)
	r.layers["cluster.scatter_ms"] = per(f.self[trace.SpanScatter])
	r.layers["cluster.rpc_ms"] = per(f.self[trace.SpanRPC])
	r.layers["cluster.subquery_ms"] = per(f.incl[trace.SpanSubquery])
}

// setStoreAmp sets write and space amplification for a read-only store:
// what the ingest wrote, and what the dataset references, per user byte.
func setStoreAmp(r *result, dir string, user int64) error {
	written, err := dirBytes(dir)
	if err != nil {
		return err
	}
	live, err := liveBytes(dir)
	if err != nil {
		return err
	}
	r.e2e["write_amp"] = float64(written) / float64(user)
	r.e2e["space_amp"] = float64(live) / float64(user)
	return nil
}
