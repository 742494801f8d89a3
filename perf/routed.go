package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"st4ml/internal/cluster"
	"st4ml/internal/datagen"
	"st4ml/internal/engine"
	"st4ml/internal/selection"
	"st4ml/internal/serve"
	"st4ml/internal/stdata"
	"st4ml/internal/trace"
)

// routedStack is routed-hot's program under test: two shard daemons over
// one store and a router in front of them.
type routedStack struct {
	dir     string
	shards  []*daemon
	servers []*serve.Server
	ctxs    []*engine.Context
	caps    []*capture
	router  *cluster.Router
	rd      *daemon
	ingest  time.Duration

	mu    sync.Mutex
	dumps map[string]map[string][]trace.WireSpan // window key -> shard -> spans
}

// close stops whatever newRoutedStack started.
func (s *routedStack) close() {
	if s.rd != nil {
		s.rd.close()
	}
	for _, d := range s.shards {
		d.close()
	}
	for _, srv := range s.servers {
		srv.Close()
	}
}

// recordSubquery keeps a traced sub-query's span dump by window and shard.
func (s *routedStack) recordSubquery(path string, req, resp []byte) {
	if path != "/subquery" {
		return
	}
	var q serve.SubQueryRequest
	var r serve.SubQueryResponse
	if json.Unmarshal(req, &q) != nil || json.Unmarshal(resp, &r) != nil || len(r.Spans) == 0 {
		return
	}
	key := windowKey(q.MinX, q.MinY, q.MaxX, q.MaxY, q.TStart, q.TEnd)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dumps[key] == nil {
		s.dumps[key] = map[string][]trace.WireSpan{}
	}
	s.dumps[key][r.Shard] = r.Spans
}

// newRoutedStack ingests the store, starts two shard daemons over it (each
// with its own engine context and default cache, which holds the whole
// store) and a router over them, and warms every shard's cache with one
// whole-extent query.
func newRoutedStack(cfg runConfig, gen *generator, recs []stdata.EventRec, rep int) (*routedStack, error) {
	st := &routedStack{dir: setupDir(cfg, rep), dumps: map[string]map[string][]trace.WireSpan{}}
	var err error
	if _, st.ingest, err = ingestEvents(engine.New(engine.Config{}), recs, st.dir); err != nil {
		return nil, err
	}
	if err := st.start(gen); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

func (st *routedStack) start(gen *generator) error {
	var urls []string
	for i := 0; i < 2; i++ {
		ctx := engine.New(engine.Config{})
		srv := serve.NewServer(serve.Config{Ctx: ctx, ShardName: fmt.Sprintf("s%d", i)})
		st.ctxs, st.servers = append(st.ctxs, ctx), append(st.servers, srv)
		if err := srv.AddDataset("nyc", "nyc", st.dir); err != nil {
			return err
		}
		c := &capture{next: srv.Handler(), record: st.recordSubquery}
		d, err := startDaemon(c)
		if err != nil {
			return err
		}
		st.caps, st.shards = append(st.caps, c), append(st.shards, d)
		urls = append(urls, d.url)
	}
	m, err := cluster.ParseShards(strings.Join(urls, ";"))
	if err != nil {
		return err
	}
	if st.router, err = cluster.NewRouter(cluster.Config{Shards: m}); err != nil {
		return err
	}
	if err := st.router.AddDataset("nyc", "nyc", st.dir); err != nil {
		return err
	}
	if st.rd, err = startDaemon(st.router.Handler()); err != nil {
		return err
	}
	all := selection.Window{Space: datagen.NYCExtent, Time: datagen.Year2013}
	if status, _, err := gen.post(st.rd.url+"/query", queryBody(all, false)); err != nil || status != http.StatusOK {
		return fmt.Errorf("routed-hot: warm-up query: status %d, %v", status, err)
	}
	return nil
}

// checkRoutedBytes asserts that routed answers equal a single daemon's
// byte for byte (stats and records) on the given windows, against a
// throwaway daemon called in-process.
func checkRoutedBytes(gen *generator, st *routedStack, windows []selection.Window) error {
	srv := serve.NewServer(serve.Config{})
	defer srv.Close()
	if err := srv.AddDataset("nyc", "nyc", st.dir); err != nil {
		return err
	}
	h := srv.Handler()
	for _, w := range windows {
		body := queryBody(w, true)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
		status, routed, err := gen.post(st.rd.url+"/query", body)
		if err != nil || status != http.StatusOK || rec.Code != http.StatusOK {
			return fmt.Errorf("routed-hot: byte check: status %d/%d, %v", status, rec.Code, err)
		}
		var a, b queryReply
		if err := json.Unmarshal(rec.Body.Bytes(), &a); err != nil {
			return err
		}
		if err := json.Unmarshal(routed, &b); err != nil {
			return err
		}
		ja, _ := json.Marshal(struct {
			S selection.Stats
			R []json.RawMessage
		}{a.Stats, a.Records})
		jb, _ := json.Marshal(struct {
			S selection.Stats
			R []json.RawMessage
		}{b.Stats, b.Records})
		if !bytes.Equal(ja, jb) {
			return fmt.Errorf("routed-hot: routed answer differs from the single daemon's for window %v", w)
		}
	}
	return nil
}

func runRoutedHot(cfg runConfig) (*result, error) {
	recs := nycEvents(servingEvents(cfg), cfg.seed)
	rng := rand.New(rand.NewSource(cfg.seed))
	gen := newGenerator(cfg.clients)
	defer gen.close()

	res := newResult()
	var st *routedStack
	if err := setUp(cfg, res, func(rep int) (func(), time.Duration, error) {
		var err error
		if st, err = newRoutedStack(cfg, gen, recs, rep); err != nil {
			return nil, 0, err
		}
		return st.close, st.ingest, nil
	}); err != nil {
		return nil, err
	}
	defer st.close()
	if err := setStoreAmp(res, st.dir, userBytes(stdata.EventRecC, recs)); err != nil {
		return nil, err
	}
	if err := checkRoutedBytes(gen, st, randomWindows(rng, datagen.NYCExtent, datagen.Year2013, servingFrac, 50)); err != nil {
		return nil, err
	}

	windows := servingWindows(rng, cfg)

	var rm0, rm1 cluster.MetricsResponse
	if err := fetchJSON(gen, st.rd.url+"/metrics", &rm0); err != nil {
		return nil, err
	}
	shardLoads := func() (int64, error) {
		var n int64
		for _, d := range st.shards {
			var m serve.MetricsResponse
			if err := fetchJSON(gen, d.url+"/metrics", &m); err != nil {
				return 0, err
			}
			n += m.Server.PartitionLoads
		}
		return n, nil
	}
	accepts := func() int64 {
		var n int64
		for _, d := range st.shards {
			n += d.accepts.Load()
		}
		return n
	}
	engines := func() engine.Snapshot {
		var sum engine.Snapshot
		for _, c := range st.ctxs {
			s := c.Metrics.Snapshot()
			sum.TasksRun += s.TasksRun
			sum.TaskTime += s.TaskTime
			sum.ShuffleBytes += s.ShuffleBytes
			sum.TaskRetries += s.TaskRetries
		}
		return sum
	}
	loads0, err := shardLoads()
	if err != nil {
		return nil, err
	}
	acc0, e0 := accepts(), engines()
	for _, c := range st.caps {
		c.on.Store(cfg.trace)
	}
	ph := runQueries(cfg, gen, st.rd.url, windows)
	for _, c := range st.caps {
		c.on.Store(false)
	}
	ph.check(newEventOracle(recs), windows)
	res.account(ph.samples)
	lat, tlat, ok := ph.split(func(i int) bool { return tracedOp(cfg, i) })
	res.setWindow("query", ph.timed, lat, ok)
	res.note("generator: %d dials for %d queries", ph.dials, len(ph.samples))
	if !cfg.trace {
		return res, nil
	}
	acc1, e1 := accepts(), engines()
	loads1, err := shardLoads()
	if err != nil {
		return nil, err
	}
	if err := fetchJSON(gen, st.rd.url+"/metrics", &rm1); err != nil {
		return nil, err
	}
	queries := float64(rm1.Router.Queries - rm0.Router.Queries)

	traces := make([]*opTrace, 0, len(ph.samples))
	st.mu.Lock()
	for k, s := range ph.samples {
		if ph.replies[k] == nil {
			continue
		}
		w := windows[s.idx]
		key := windowKey(w.Space.MinX, w.Space.MinY, w.Space.MaxX, w.Space.MaxY, w.Time.Start, w.Time.End)
		traces = append(traces, routedOpTrace(s, ph.replies[k], st.dumps[key]))
	}
	st.mu.Unlock()
	f, err := foldAll(traces)
	if err != nil {
		return nil, err
	}
	res.setFoldLayers(f)
	setServeFoldMetrics(res, f, float64(f.ops))
	// The shards' span dumps cover their partition loads, reads and R-tree
	// builds, so these are measured here, not replayed.
	per := func(ns int64) float64 { return ratio(float64(ns)/1e6, float64(f.ops)) }
	res.layers["serve.partition_load_ms"] = per(f.incl[trace.SpanPartitionLoad])
	res.layers["storage.read_ms"] = per(f.self[trace.SpanPartitionRead])
	res.layers["index.rtree_build_ms"] = per(f.self[trace.SpanRTreeBuild])
	res.setExplainLayers(ph.tracedQueries(windows))
	res.setTraceOverhead(lat, tlat)
	res.setEngineLayers(engineDelta(e0, e1), queries)
	rs0, rs1 := rm0.Router, rm1.Router
	res.layers["serve.result_hit_ratio"] = ratio(float64(rs1.ResultHits-rs0.ResultHits),
		float64(rs1.ResultHits-rs0.ResultHits+rs1.ResultMisses-rs0.ResultMisses))
	res.layers["serve.loads_per_query"] = ratio(float64(loads1-loads0), queries)
	res.layers["cluster.scatter_width"] = ratio(float64(rs1.ScatterWidth-rs0.ScatterWidth), queries)
	res.layers["cluster.dials_per_query"] = ratio(float64(acc1-acc0), queries)
	res.layers["cluster.retries"] = float64(rs1.Hedges - rs0.Hedges + rs1.Failovers - rs0.Failovers + rs1.Replans - rs0.Replans)
	res.layers["client.dials_per_op"] = ratio(float64(ph.dials), float64(len(ph.samples)))
	res.note("router: %d shard connections accepted for %.0f routed queries", acc1-acc0, queries)
	return res, nil
}
