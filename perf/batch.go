package main

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"st4ml/internal/baseline"
	"st4ml/internal/bench"
	"st4ml/internal/convert"
	"st4ml/internal/datagen"
	"st4ml/internal/engine"
	"st4ml/internal/extract"
	"st4ml/internal/geom"
	"st4ml/internal/index"
	"st4ml/internal/instance"
	"st4ml/internal/partition"
	"st4ml/internal/selection"
	"st4ml/internal/stdata"
	"st4ml/internal/storage"
	"st4ml/internal/trace"
)

// extract-batch runs the Table 7 pipelines with built-in extractors
// (stbench's st4ml-b rows) over on-disk stores: hourly-flow
// (Event→TimeSeries), grid-speed (Traj→SpatialMap) and transition
// (Traj→Raster). An op is one pool window through the three pipelines (the
// k-th NYC window for hourly-flow, the k-th Porto window for the other
// two), so every op has the same mix of pipelines. The pool holds a few
// hundred stratified windows, cycled in a seeded order: no window is more
// than a fraction of a percent of a run's ops, so a percentile never sits on
// one window's latency or in the gap between two.
const batchFrac = 0.1 // window size per axis

var pipelines = []struct {
	name, convert, extract string
	app                    bench.App
}{
	{"hourly-flow", "convert.event_to_ts_ms", "extract.hourly_flow_ms", bench.AppHourlyFlow},
	{"grid-speed", "convert.traj_to_sm_ms", "extract.grid_speed_ms", bench.AppGridSpeed},
	{"transition", "convert.traj_to_raster_ms", "extract.transition_ms", bench.AppTransition},
}

type eventInst = instance.Event[geom.Point, string, int64]
type trajInst = instance.Trajectory[instance.Unit, int64]

func round2(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return math.Round(v*100) / 100
}

// batchSizes are the corpus sizes (events, trajectories) and the grid of
// stratified windows that makes the pool.
func batchSizes(cfg runConfig) (events, trajs, gridX, gridY int) {
	if cfg.small {
		return 5_000, 500, 3, 2
	}
	return 100_000, 10_000, 16, 12
}

// batchEnv is one set-up of the stores the pipelines read.
type batchEnv struct {
	eventDir, trajDir string
	ingest            time.Duration
}

func newBatchEnv(dir string, events []stdata.EventRec, trajs []stdata.TrajRec) (batchEnv, error) {
	ctx := engine.New(engine.Config{})
	env := batchEnv{eventDir: filepath.Join(dir, "events"), trajDir: filepath.Join(dir, "trajs")}
	opts := selection.IngestOptions{SampleFrac: 0.05, Seed: citySeed, BlockRecords: 512}
	ev, _ := stdata.Lookup("nyc")
	tr, _ := stdata.Lookup("porto")
	t0 := time.Now()
	opts.Name = "nyc"
	if _, err := ev.Ingest(ctx, events, env.eventDir, partition.TSTR{GT: 12, GS: 8}, opts); err != nil {
		return env, err
	}
	opts.Name = "porto"
	if _, err := tr.Ingest(ctx, trajs, env.trajDir, partition.TSTR{GT: 12, GS: 8}, opts); err != nil {
		return env, err
	}
	env.ingest = time.Since(t0)
	return env, nil
}

// runPipeline runs pipeline p over window w on ctx and returns its
// checksum and the records that entered extraction. A traced op calls mark
// at the two step boundaries (after selection, after conversion) and
// materialises the lazy conversion first, so each step's time is its own.
func runPipeline(ctx *engine.Context, env batchEnv, p int, w selection.Window, traced bool, mark func()) (float64, int64, error) {
	cfg := selection.Config{Index: true, Planner: partition.TSTR{GT: 4, GS: 4}, SampleFrac: 0.1}
	if p == 0 {
		recs, stats, err := selection.New(ctx, stdata.EventRecC, stdata.EventRec.Box, nil, cfg).SelectPruned(env.eventDir, w)
		if err != nil {
			return 0, 0, err
		}
		mark()
		return hourlyFlow(recs, w, traced, mark), stats.SelectedRecords, nil
	}
	recs, stats, err := selection.New(ctx, stdata.TrajRecC, stdata.TrajRec.Box, nil, cfg).SelectPruned(env.trajDir, w)
	if err != nil {
		return 0, 0, err
	}
	mark()
	return trajFeature(p, recs, w, traced, mark), stats.SelectedRecords, nil
}

// hourlyFlow converts selected events to a 24-slot time series over the
// window and returns the flow checksum.
func hourlyFlow(recs *engine.RDD[stdata.EventRec], w selection.Window, traced bool, mark func()) float64 {
	events := engine.Map(recs, stdata.EventRec.ToEvent)
	cells := convert.EventToTimeSeries(events, convert.TimeGridTarget(instance.TimeGrid{Window: w.Time, NT: 24}),
		convert.Auto, func(in []eventInst) []eventInst { return in })
	if traced {
		cells = cells.Cache()
		cells.Count()
	}
	mark()
	var sum float64
	if ts, ok := extract.TsFlow(cells); ok {
		for i, e := range ts.Entries {
			sum += float64(int64(i+1) * e.Value)
		}
	}
	return sum
}

// trajFeature runs grid-speed (p 1) or transition (p 2) over selected
// trajectories and returns the checksum.
func trajFeature(p int, recs *engine.RDD[stdata.TrajRec], w selection.Window, traced bool, mark func()) float64 {
	trajs := engine.Map(recs, stdata.TrajRec.ToTrajectory)
	var sum float64
	if p == 1 {
		grid := instance.SpatialGrid{Extent: datagen.PortoExtent, NX: 20, NY: 20}
		cells := convert.TrajToSpatialMap(trajs, convert.SpatialGridTarget(grid), convert.Auto,
			func(in []trajInst) []trajInst { return in })
		if traced {
			cells = cells.Cache()
			cells.Count()
		}
		mark()
		if sm, ok := extract.SmSpeed(cells, extract.KMH); ok {
			for _, e := range sm.Entries {
				sum += round2(e.Value)
			}
		}
		return sum
	}
	// The built-in transition extractor bins trajectories into the raster
	// itself, so this pipeline's conversion step is the record-to-instance
	// conversion.
	if traced {
		trajs = trajs.Cache()
		trajs.Count()
	}
	mark()
	grid := instance.RasterGrid{
		Space: instance.SpatialGrid{Extent: w.Space, NX: 10, NY: 10},
		Time:  instance.TimeGrid{Window: w.Time, NT: 24},
	}
	for _, e := range extract.RasterTransit(trajs, grid).Entries {
		sum += float64(e.Value.In + e.Value.Out)
	}
	return sum
}

// corpusBoxes are the generated records' boxes, computed once for the
// pool check's brute-force scans.
type corpusBoxes struct {
	events, trajs []index.Box
}

func newCorpusBoxes(events []stdata.EventRec, trajs []stdata.TrajRec) corpusBoxes {
	b := corpusBoxes{events: make([]index.Box, len(events)), trajs: make([]index.Box, len(trajs))}
	for i, r := range events {
		b.events[i] = r.Box()
	}
	for i, r := range trajs {
		b.trajs[i] = r.Box()
	}
	return b
}

// inMemoryPipeline is the pool check's brute-force path: the records whose
// boxes intersect the window, found by scanning the generated corpus, run
// through the same conversion and extraction as a one-partition in-memory
// RDD. It shares no code with the storage, partitioning, pruning and index
// paths the timed ops select through.
func inMemoryPipeline(ctx *engine.Context, events []stdata.EventRec, trajs []stdata.TrajRec, boxes corpusBoxes,
	p int, w selection.Window) (float64, int64) {
	box := w.Box()
	if p == 0 {
		var in []stdata.EventRec
		for i, b := range boxes.events {
			if b.Intersects(box) {
				in = append(in, events[i])
			}
		}
		return hourlyFlow(engine.Parallelize(ctx, in, 1), w, false, func() {}), int64(len(in))
	}
	var in []stdata.TrajRec
	for i, b := range boxes.trajs {
		if b.Intersects(box) {
			in = append(in, trajs[i])
		}
	}
	return trajFeature(p, engine.Parallelize(ctx, in, 1), w, false, func() {}), int64(len(in))
}

// pipelineAnswer is one pipeline's result over one window: its checksum
// and the records that entered extraction.
type pipelineAnswer struct {
	sum     float64
	records int64
}

func (a pipelineAnswer) matches(b pipelineAnswer) bool {
	return a.records == b.records && math.Abs(a.sum-b.sum) <= 1e-9*math.Max(1, math.Abs(b.sum))
}

// gsCheckWindows is how many pool windows per pipeline the GeoSpark-like
// baseline checks; it rescans its whole store per window, so checking the
// pool with it would cost ~45 s a run.
const gsCheckWindows = 8

// checkPool runs every pool window through the three pipelines once and
// checks each answer against the brute-force in-memory path, which must
// agree exactly, record count and checksum. The first gsCheckWindows
// windows of each pipeline are also checked, summed, against the
// GeoSpark-like baseline (bench.RunApp over its own flat feature stores,
// with its own feature code), which covers the conversion and extraction
// code the two paths share. It returns the checked answers the timed ops
// are compared with, by pipeline and window.
func checkPool(cfg runConfig, env batchEnv, events []stdata.EventRec, trajs []stdata.TrajRec,
	pool [][]selection.Window) ([][]pipelineAnswer, error) {
	ctx := engine.New(engine.Config{})
	answers := make([][]pipelineAnswer, len(pipelines))
	boxes := newCorpusBoxes(events, trajs)
	for p, pl := range pipelines {
		answers[p] = make([]pipelineAnswer, len(pool[p]))
		for k, w := range pool[p] {
			sum, n, err := runPipeline(ctx, env, p, w, false, func() {})
			if err != nil {
				return nil, err
			}
			got := pipelineAnswer{sum, n}
			wsum, wn := inMemoryPipeline(ctx, events, trajs, boxes, p, w)
			if got != (pipelineAnswer{wsum, wn}) {
				return nil, fmt.Errorf("extract-batch: %s window %d: program %v over %d records, brute force %v over %d",
					pl.name, k, sum, n, wsum, wn)
			}
			answers[p][k] = got
		}
	}

	benv := &bench.Env{Ctx: ctx, Events: events, Trajs: trajs,
		GSEventDir: filepath.Join(cfg.dir, "gs-events"), GSTrajDir: filepath.Join(cfg.dir, "gs-trajs")}
	if _, err := baseline.IngestEventsToDisk(ctx, events, benv.GSEventDir, 2*ctx.Slots()); err != nil {
		return nil, err
	}
	if _, err := baseline.IngestTrajsToDisk(ctx, trajs, benv.GSTrajDir, 2*ctx.Slots()); err != nil {
		return nil, err
	}
	for p, pl := range pipelines {
		n := min(gsCheckWindows, len(pool[p]))
		var total pipelineAnswer
		for _, a := range answers[p][:n] {
			total.sum += a.sum
			total.records += a.records
		}
		gs, err := bench.RunApp(benv, pl.app, bench.GeoSpark, pool[p][:n])
		if err != nil {
			return nil, err
		}
		if !total.matches(pipelineAnswer{gs.Checksum, gs.Records}) {
			return nil, fmt.Errorf("extract-batch: %s over %d windows: program checksum %v over %d records, baseline %v over %d",
				pl.name, n, total.sum, total.records, gs.Checksum, gs.Records)
		}
	}
	return answers, nil
}

func runExtractBatch(cfg runConfig) (*result, error) {
	nev, ntr, gx, gy := batchSizes(cfg)
	events := nycEvents(nev, cfg.seed)
	trajs := portoTrips(ntr, cfg.seed)
	rng := rand.New(rand.NewSource(cfg.seed))
	pool := [][]selection.Window{
		stratifiedWindows(rng, datagen.NYCExtent, datagen.Year2013, batchFrac, gx, gy),
		stratifiedWindows(rng, datagen.PortoExtent, datagen.Year2013, batchFrac, gx, gy),
		stratifiedWindows(rng, datagen.PortoExtent, datagen.Year2013, batchFrac, gx, gy),
	}
	order := rng.Perm(gx * gy)

	res := newResult()
	var env batchEnv
	if err := setUp(cfg, res, func(rep int) (func(), time.Duration, error) {
		var err error
		if env, err = newBatchEnv(setupDir(cfg, rep), events, trajs); err != nil {
			return nil, 0, err
		}
		return func() {}, env.ingest, nil // stores only: nothing to stop
	}); err != nil {
		return nil, err
	}
	user := userBytes(stdata.EventRecC, events) + userBytes(stdata.TrajRecC, trajs)
	written, err := dirBytes(filepath.Dir(env.eventDir))
	if err != nil {
		return nil, err
	}
	le, err := liveBytes(env.eventDir)
	if err != nil {
		return nil, err
	}
	lt, err := liveBytes(env.trajDir)
	if err != nil {
		return nil, err
	}
	res.e2e["write_amp"] = float64(written) / float64(user)
	res.e2e["space_amp"] = float64(le+lt) / float64(user)
	checkStart := time.Now()
	answers, err := checkPool(cfg, env, events, trajs, pool)
	if err != nil {
		return nil, err
	}
	res.note("pool check: %.1f s (not timed)", time.Since(checkStart).Seconds())

	plain := engine.New(engine.Config{})
	tr := trace.New()
	traced := engine.New(engine.Config{Tracer: tr})
	var samples []opSample
	var traces []*opTrace
	var items int64
	stepKB := make([]float64, 3) // selection, convert, extract
	p0, t0 := plain.Metrics.Snapshot(), traced.Metrics.Snapshot()
	rw, u0 := startWindow()
	origin := u0.at
	deadline := origin.Add(cfg.window())
	for n := 0; time.Now().Before(deadline); n++ {
		k, isTraced := order[n%len(order)], tracedOp(cfg, n)
		ctx := plain
		if isTraced {
			ctx = traced
		}
		start, ok := time.Now(), true
		var steps []pipelineSteps
		for p := range pipelines {
			tr.Reset()
			var marks []time.Time
			var allocs []uint64
			mark := func() {}
			if isTraced {
				mark = func() { marks, allocs = append(marks, time.Now()), append(allocs, heapAllocs()) }
				mark()
			}
			s, recs, err := runPipeline(ctx, env, p, pool[p][k], isTraced, mark)
			mark()
			if cfg.tamper != nil {
				s, _ = strconv.ParseFloat(string(cfg.tamper([]byte(strconv.FormatFloat(s, 'g', -1, 64)))), 64)
			}
			ok = ok && err == nil && (pipelineAnswer{s, recs}).matches(answers[p][k])
			if isTraced {
				steps = append(steps, pipelineSteps{pipelines[p].name, marks, tr.Snapshot()})
				for j := range stepKB {
					stepKB[j] += float64(allocs[j+1]-allocs[j]) / 1024
				}
			}
		}
		end := time.Now()
		samples = append(samples, opSample{idx: n, start: start.Sub(origin).Nanoseconds(), end: end.Sub(origin).Nanoseconds(), ok: ok})
		if isTraced {
			t, its := batchOpTrace(origin, start, end, steps)
			traces = append(traces, t)
			items += its
		}
	}
	tw := endWindow(rw, u0)
	tw.samples = samples
	// The generated corpora stay in memory through the timed window, as they
	// do beside the pipelines in stbench's fig7 runs. Dropped, they would
	// leave a live heap of about 1 MiB, under the runtime's 4 MiB minimum
	// heap goal, and the pipelines would run ~160 collections a second,
	// each stopping the world on both cores: a run would then measure how
	// often the host preempted a core, not the pipelines.
	runtime.KeepAlive(events)
	runtime.KeepAlive(trajs)
	p1, t1 := plain.Metrics.Snapshot(), traced.Metrics.Snapshot()
	res.account(tw.samples)
	lat, tlat, ok := tw.split(func(n int) bool { return tracedOp(cfg, n) })
	res.setWindow("op (one window through the pipelines)", tw, lat, ok)
	res.note("pool: %d windows per pipeline, each checked during set-up (brute force; %d per pipeline also against the GeoSpark-like baseline)",
		len(order), gsCheckWindows)
	if !cfg.trace {
		return res, nil
	}

	f, err := foldAll(traces)
	if err != nil {
		return nil, err
	}
	res.setFoldLayers(f)
	perOp := func(ns int64) float64 { return ratio(float64(ns)/1e6, float64(f.ops)) }
	res.layers["selection.select_ms"] = perOp(f.incl["step:select"])
	for _, pl := range pipelines {
		res.layers[pl.convert] = perOp(f.incl["step:convert:"+pl.name])
		res.layers[pl.extract] = perOp(f.incl["step:extract:"+pl.name])
	}
	for k, name := range []string{"selection.alloc_kb_per_op", "convert.alloc_kb_per_op", "extract.alloc_kb_per_op"} {
		res.layers[name] = ratio(stepKB[k], float64(len(tlat)))
	}
	res.layers["storage.read_ms"] = perOp(f.self[trace.SpanPartitionRead])
	res.layers["index.rtree_build_ms"] = perOp(f.self[trace.SpanRTreeBuild])
	res.layers["index.rtree_items"] = ratio(float64(items), float64(f.count[trace.SpanRTreeBuild]))
	res.setTraceOverhead(lat, tlat)
	meta, err := storage.ReadMetadata(env.eventDir)
	if err != nil {
		return nil, err
	}
	// Hourly-flow's selection reads each pruned partition of its window,
	// pruned to the window's box.
	var reads []partRead
	for _, w := range pool[0][:min(32, len(pool[0]))] {
		for _, id := range meta.Prune(w.Space, w.Time) {
			reads = append(reads, partRead{id: id, boxes: []index.Box{w.Box()}})
		}
	}
	rc, err := replayReads(env.eventDir, reads, len(reads))
	if err != nil {
		return nil, err
	}
	res.layers["storage.read_alloc_kb"] = rc.readKB
	res.layers["index.rtree_alloc_kb"] = rc.buildKB
	res.note("pruned-read replay: %d partition reads, median %.1f KiB read + %.1f KiB R-tree", rc.samples, rc.readKB, rc.buildKB)

	pd, td := engineDelta(p0, p1), engineDelta(t0, t1)
	res.setEngineLayers(pd, float64(len(lat)))
	res.layers["engine.retries"] = float64(pd.TaskRetries + td.TaskRetries)
	res.layers["storage.raw_bytes_per_op"] = ratio(float64(pd.BytesDecompressed), float64(len(lat)))
	res.layers["storage.blocks_pruned_frac"] = ratio(float64(pd.BlocksPruned), float64(pd.BlocksScanned+pd.BlocksPruned))
	return res, nil
}

// pipelineSteps is what one traced pipeline run left: its name, its marks
// (start, the two step boundaries, end) and the spans the engine recorded.
type pipelineSteps struct {
	name  string
	marks []time.Time
	recs  []trace.SpanRecord
}

// batchOpTrace builds one traced op's span tree: the op, a span per
// pipeline run, each run's three timed steps, and under them the spans the
// engine recorded (stages, tasks, partition reads, R-tree builds,
// shuffles), each root attached to the step it started in. It also
// returns the items the op's R-tree builds indexed.
func batchOpTrace(origin, start, end time.Time, runs []pipelineSteps) (*opTrace, int64) {
	t := &opTrace{}
	at := func(x time.Time) int64 { return x.Sub(origin).Nanoseconds() }
	root := t.add(0, "op:window", layerUnattributed, at(start), at(end))
	var items int64
	for _, r := range runs {
		items += addPipelineTrace(t, root, at, r)
	}
	return t, items
}

// addPipelineTrace adds one pipeline run's subtree under root: the run,
// its three timed steps, and the spans the engine recorded, each root of
// those attached to the step it started in. It returns the items the run's
// R-tree builds indexed.
func addPipelineTrace(t *opTrace, root int, at func(time.Time) int64, run pipelineSteps) int64 {
	marks := run.marks
	pl := t.add(root, "pipeline:"+run.name, layerUnattributed, at(marks[0]), at(marks[3]))
	stepNames := []string{"step:select", "step:convert:" + run.name, "step:extract:" + run.name}
	stepLayers := []string{layerSelection, layerConvert, layerExtract}
	steps := make([]int, 3)
	for k := range steps {
		steps[k] = t.add(pl, stepNames[k], stepLayers[k], at(marks[k]), at(marks[k+1]))
	}
	var items int64
	spans := make([]trace.WireSpan, len(run.recs))
	for i, r := range run.recs {
		spans[i] = trace.WireSpan{ID: uint64(r.ID), Parent: uint64(r.Parent), Name: r.Name,
			StartNS: at(r.Start), DurNS: r.Duration.Nanoseconds()}
		if r.Name == trace.SpanRTreeBuild {
			n, _ := r.Int("items")
			items += n
		}
	}
	stepAt := func(start int64) int {
		parent := pl
		for k := range steps {
			if start >= at(marks[k]) && start < at(marks[k+1]) {
				parent = steps[k]
			}
		}
		return parent
	}
	t.graft(spans, 0, stepAt, func(name string) string {
		if name == trace.SpanSelect {
			return "" // the selection step's own span: charged to selection
		}
		return wireLayer(name)
	})
	return items
}
