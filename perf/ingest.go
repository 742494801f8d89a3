package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"st4ml/internal/datagen"
	"st4ml/internal/geom"
	"st4ml/internal/selection"
	"st4ml/internal/serve"
	"st4ml/internal/stdata"
	"st4ml/internal/storage"
	"st4ml/internal/tempo"
)

// ingest-serve is one sequential client over one daemon. An op appends one
// batch of time-ordered records with Schema.Append, compacts on every
// compactEvery-th op under stingest's policy (partitions carrying at least
// compactMinDeltas deltas), and then asks the fixed dashboard queries, each
// dashboard twice: the first ask after a commit misses the result cache
// the generation bump invalidated, the second hits it. The run is a fixed
// sequence of ops sized from --seconds, not a deadline, so the op
// sequence, the bytes it writes and the compactions it triggers are the
// same on every run of a seed, and every answer has one right value: after
// append k commits, a dashboard's count is the oracle's count over the
// base store and batches 0..k.
const (
	ingestOpsPerSecond = 30 // sequence length per second of --seconds
	batchRecords       = 40
	batchSpanSeconds   = 60 // event time one batch covers
	compactEvery       = 4
	compactMinDeltas   = 4
	compactGCGrace     = time.Minute // stingest's default -gc-grace
	dashboardWindows   = 4
	dashboardViewers   = 2
)

func ingestBaseEvents(cfg runConfig) int {
	if cfg.small {
		return 10_000
	}
	return 100_000
}

// ingestOps is the length of a run's op sequence.
func ingestOps(cfg runConfig) int {
	return max(2*compactEvery, int(cfg.seconds*ingestOpsPerSecond))
}

// appendBatches generates n time-ordered batches that continue past the
// generated year, placed like the store's events.
func appendBatches(seed int64, firstID int64, n, size int) [][]stdata.EventRec {
	locs := nycEvents(n*size, seed+7919)
	out := make([][]stdata.EventRec, n)
	t := datagen.Year2013.End + 1
	for b := range out {
		batch := make([]stdata.EventRec, size)
		for k := range batch {
			r := locs[b*size+k]
			r.ID = firstID + int64(b*size+k)
			r.Time = t + int64(k)*batchSpanSeconds/int64(size)
			batch[k] = r
		}
		out[b] = batch
		t += batchSpanSeconds
	}
	return out
}

// dashboards are the fixed "recent hour" windows: the four central cells
// of a 4×4 grid over the extent, from the store's last hour through
// everything the sequence appends.
func dashboards(appendedEnd int64) []selection.Window {
	ext := datagen.NYCExtent
	span := tempo.New(datagen.Year2013.End-3600, appendedEnd)
	var out []selection.Window
	for i := 0; i < dashboardWindows; i++ {
		cx, cy := 1+i%2, 1+i/2
		w, h := ext.Width()/4, ext.Height()/4
		x, y := ext.MinX+float64(cx)*w, ext.MinY+float64(cy)*h
		out = append(out, selection.Window{Space: geom.Box(x, y, x+w, y+h), Time: span})
	}
	return out
}

// prefixCounts returns, for each dashboard window, its count once batches
// 0..k-1 have committed, at index k.
func prefixCounts(base []stdata.EventRec, batches [][]stdata.EventRec, windows []selection.Window) [][]int64 {
	cum := make([][]int64, len(windows))
	for wi, w := range windows {
		box := w.Box()
		var n int64
		for _, r := range base {
			if r.Box().Intersects(box) {
				n++
			}
		}
		cum[wi] = make([]int64, len(batches)+1)
		cum[wi][0] = n
		for k, b := range batches {
			for _, r := range b {
				if r.Box().Intersects(box) {
					n++
				}
			}
			cum[wi][k+1] = n
		}
	}
	return cum
}

// newIngestStack sets up ingest-serve: a daemon with default settings,
// its result cache warmed with the dashboards.
func newIngestStack(cfg runConfig, gen *generator, recs []stdata.EventRec, rep int, dash []selection.Window) (*daemonStack, error) {
	st, err := newDaemonStack(setupDir(cfg, rep), recs, 0)
	if err != nil {
		return nil, err
	}
	for _, w := range dash {
		if status, _, err := gen.post(st.d.url+"/query", queryBody(w, false)); err != nil || status != http.StatusOK {
			st.close()
			return nil, fmt.Errorf("ingest-serve: warm-up query: status %d, %v", status, err)
		}
	}
	return st, nil
}

// tracedCycle reports whether op k of a traced run is traced: whole
// compaction cycles alternate, so traced and untraced ops have the same
// mix of compacting and plain appends.
func tracedCycle(cfg runConfig, k int) bool { return cfg.trace && (k/compactEvery)%2 == 1 }

// dashQuery is one dashboard query of an op, as the client timed it.
type dashQuery struct {
	window     int
	start, end int64 // ns since the window began
	rep        *queryReply
	size       int
}

// ingestOp is one completed op of the sequence.
type ingestOp struct {
	sample      opSample
	appendD     time.Duration
	compactD    time.Duration
	compact     storage.CompactStats
	compacted   bool // the pass rewrote partitions
	queries     []dashQuery
	invalidated int // cache entries dropped by this op's generation bump (traced ops)
}

// runIngestOps drives the op sequence and checks every answer exactly.
func runIngestOps(cfg runConfig, gen *generator, st *daemonStack, batches [][]stdata.EventRec,
	dash []selection.Window, cum [][]int64) ([]ingestOp, timed, error) {
	sch, _ := stdata.Lookup("nyc")
	bodies := make([][]byte, len(dash))
	for i, w := range dash {
		bodies[i] = queryBody(w, false)
	}
	ops := make([]ingestOp, 0, len(batches))
	rw, u0 := startWindow()
	origin := u0.at
	at := func() int64 { return time.Since(origin).Nanoseconds() }
	for k, batch := range batches {
		op := ingestOp{}
		traced := tracedCycle(cfg, k)
		if traced {
			var m serve.MetricsResponse
			if err := fetchJSON(gen, st.d.url+"/metrics", &m); err != nil {
				return nil, timed{}, err
			}
			op.invalidated = m.Cache.Entries
		}
		op.sample = opSample{idx: k, start: at(), ok: true}
		t0 := time.Now()
		if _, err := sch.Append(batch, st.dir, fmt.Sprintf("batch-%d", k)); err != nil {
			return nil, timed{}, fmt.Errorf("ingest-serve: append %d: %w", k, err)
		}
		op.appendD = time.Since(t0)
		if k%compactEvery == compactEvery-1 {
			t0 := time.Now()
			cs, err := sch.Compact(st.dir, storage.CompactOptions{MinDeltas: compactMinDeltas, GCGrace: compactGCGrace})
			if err != nil {
				return nil, timed{}, fmt.Errorf("ingest-serve: compaction after append %d: %w", k, err)
			}
			op.compactD, op.compact, op.compacted = time.Since(t0), cs, cs.PartitionsCompacted > 0
		}
		for v := 0; v < dashboardViewers; v++ {
			for wi := range dash {
				path := st.d.url + "/query"
				if traced {
					path += "?explain=1"
				}
				q := dashQuery{window: wi, start: at()}
				status, body, err := gen.post(path, bodies[wi])
				q.end = at()
				if err != nil || status != http.StatusOK {
					op.sample.ok = false
					continue
				}
				if cfg.tamper != nil {
					body = cfg.tamper(body)
				}
				var rep queryReply
				if json.Unmarshal(body, &rep) != nil || rep.Stats.SelectedRecords != cum[wi][k+1] {
					op.sample.ok = false
				}
				if traced {
					q.rep, q.size = &rep, len(body)
				}
				op.queries = append(op.queries, q)
			}
		}
		op.sample.end = at()
		ops = append(ops, op)
	}
	tw := endWindow(rw, u0)
	for _, op := range ops {
		tw.samples = append(tw.samples, op.sample)
	}
	return ops, tw, nil
}

func runIngestServe(cfg runConfig) (*result, error) {
	base := nycEvents(ingestBaseEvents(cfg), cfg.seed)
	nops := ingestOps(cfg)
	batches := appendBatches(cfg.seed, int64(len(base)), nops, batchRecords)
	dash := dashboards(datagen.Year2013.End + int64(nops)*batchSpanSeconds)
	gen := newGenerator(1)
	defer gen.close()

	res := newResult()
	var st *daemonStack
	if err := setUp(cfg, res, func(rep int) (func(), time.Duration, error) {
		var err error
		if st, err = newIngestStack(cfg, gen, base, rep, dash); err != nil {
			return nil, 0, err
		}
		return st.close, st.ingest, nil
	}); err != nil {
		return nil, err
	}
	defer st.close()
	cum := prefixCounts(base, batches, dash)
	mf0, err := storage.ReadManifest(st.dir)
	if err != nil {
		return nil, err
	}
	// What the program writes: the base ingest, read off the directory
	// before the sequence starts; the delta files each append commits, as
	// its commit event reports them; and each compaction's rewrites
	// (CompactStats.BytesRewritten). The manifest, rewritten on every
	// commit, is counted once, in the base.
	ingested, err := dirBytes(st.dir)
	if err != nil {
		return nil, err
	}
	var deltaBytes int64
	cancel := storage.OnCommit(st.dir, func(ev storage.CommitEvent) error {
		for _, d := range ev.Deltas {
			deltaBytes += d.Bytes
		}
		return nil
	})
	defer cancel()

	var m0, m1 serve.MetricsResponse
	if err := fetchJSON(gen, st.d.url+"/metrics", &m0); err != nil {
		return nil, err
	}
	e0, dials0 := st.ctx.Metrics.Snapshot(), gen.dials.Load()
	ops, tw, err := runIngestOps(cfg, gen, st, batches, dash, cum)
	if err != nil {
		return nil, err
	}
	if err := fetchJSON(gen, st.d.url+"/metrics", &m1); err != nil {
		return nil, err
	}
	e1, dials1 := st.ctx.Metrics.Snapshot(), gen.dials.Load()
	res.account(tw.samples)
	lat, tlat, ok := tw.split(func(k int) bool { return tracedCycle(cfg, k) })
	res.setWindow("op (append, compaction when due, dashboards)", tw, lat, ok)

	var appendMS, compactMS []float64
	var compactBytes, partsCompacted, filesRemoved int64
	for _, op := range ops {
		appendMS = append(appendMS, ms(op.appendD))
		if op.compacted {
			compactMS = append(compactMS, ms(op.compactD))
		}
		compactBytes += op.compact.BytesRewritten
		partsCompacted += int64(op.compact.PartitionsCompacted)
		filesRemoved += int64(op.compact.FilesRemoved)
	}
	user := userBytes(stdata.EventRecC, base)
	for _, b := range batches {
		user += userBytes(stdata.EventRecC, b)
	}
	written := ingested + deltaBytes + compactBytes
	live, err := liveBytes(st.dir)
	if err != nil {
		return nil, err
	}
	res.e2e["write_amp"] = float64(written) / float64(user)
	res.e2e["space_amp"] = float64(live) / float64(user)
	mf1, err := storage.ReadManifest(st.dir)
	if err != nil {
		return nil, err
	}
	deltas := mf1.NextSeq - mf0.NextSeq
	res.note("sequence: %d appends of %d records wrote %d delta files (%d bytes); %d compactions rewrote %d partitions (%d bytes) and removed %d files; %.1f MiB written with the %d-byte base",
		len(ops), batchRecords, deltas, deltaBytes, len(compactMS), partsCompacted, compactBytes, filesRemoved,
		float64(written)/(1<<20), ingested)
	if !cfg.trace {
		return res, nil
	}

	meta, err := storage.ReadMetadata(st.dir)
	if err != nil {
		return nil, err
	}
	var tq []tracedQuery
	var invalidated []float64
	for _, op := range ops {
		if !tracedCycle(cfg, op.sample.idx) {
			continue
		}
		invalidated = append(invalidated, float64(op.invalidated))
		for _, q := range op.queries {
			tq = append(tq, tracedQuery{window: dash[q.window], latMS: float64(q.end-q.start) / 1e6, rep: q.rep, size: q.size})
		}
	}
	lc, err := replayReads(st.dir, loadedPartitions(meta, tq), 16)
	if err != nil {
		return nil, err
	}
	var traces []*opTrace
	for _, op := range ops {
		if tracedCycle(cfg, op.sample.idx) {
			traces = append(traces, ingestOpTrace(op))
		}
	}
	f, err := foldAll(traces)
	if err != nil {
		return nil, err
	}
	res.setFoldLayers(f)
	setServeFoldMetrics(res, f, float64(len(tq)))
	res.setExplainLayers(tq)
	res.setReplayLayers(lc, tq, float64(f.ops))
	res.setTraceOverhead(lat, tlat)
	res.setServerCounters(m0.Server, m1.Server)
	nq := float64(m1.Server.Queries - m0.Server.Queries)
	res.setEngineLayers(engineDelta(e0, e1), float64(len(ops)))
	res.layers["serve.invalidated_per_append"] = mean(invalidated)
	res.layers["storage.append_ms"] = median(appendMS)
	res.layers["storage.deltas_per_append"] = ratio(float64(deltas), float64(len(ops)))
	commits := int64(len(ops) + len(compactMS))
	res.layers["storage.files_written_per_op"] = ratio(float64(deltas+partsCompacted+commits), float64(len(ops)))
	res.layers["storage.compact_ms"] = median(compactMS)
	res.layers["storage.compact_bytes"] = ratio(float64(compactBytes), float64(len(compactMS)))
	res.layers["storage.compactions"] = float64(len(compactMS))
	res.layers["client.dials_per_op"] = ratio(float64(dials1-dials0), float64(len(ops)))
	res.note("dashboards: %.0f queries, %d traced", nq, len(tq))
	return res, nil
}

// ingestOpTrace builds one traced op's span tree: the op, its append and
// compaction calls (storage), and each dashboard query as the client timed
// it, with its explain report's spans.
func ingestOpTrace(op ingestOp) *opTrace {
	t := &opTrace{}
	s := op.sample
	root := t.add(0, "op:ingest", layerUnattributed, s.start, s.end)
	a1 := s.start + op.appendD.Nanoseconds()
	t.add(root, "storage:append", layerStorage, s.start, a1)
	if op.compactD > 0 {
		t.add(root, "storage:compact", layerStorage, a1, a1+op.compactD.Nanoseconds())
	}
	for _, q := range op.queries {
		r := t.add(root, "request", layerUnattributed, q.start, q.end)
		if q.rep != nil {
			t.addQueryTrace(r, q.start, q.rep)
		}
	}
	return t
}
