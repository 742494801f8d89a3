package main

import (
	"fmt"
	"math/rand"
	"time"

	"st4ml/internal/datagen"
	"st4ml/internal/engine"
	"st4ml/internal/selection"
	"st4ml/internal/serve"
	"st4ml/internal/stdata"
	"st4ml/internal/storage"
)

// servingEvents sizes the serve-cold and routed-hot store: about 3.9k
// events per partition.
func servingEvents(cfg runConfig) int {
	if cfg.small {
		return 20_000
	}
	return 500_000
}

// coldCacheBytes is serve-cold's cache budget: about a quarter of the
// store decoded (a record and its R-tree item take about 104 bytes), fixed
// per record so the workload does not move when the program's own size
// accounting does.
func coldCacheBytes(records int) int64 { return int64(records) * 104 / 4 }

// daemonStack is one daemon over a freshly ingested store: the program
// under test of serve-cold and ingest-serve.
type daemonStack struct {
	dir    string
	ctx    *engine.Context
	srv    *serve.Server
	d      *daemon
	meta   *storage.Metadata
	ingest time.Duration
}

// newDaemonStack ingests recs under dir and starts a daemon over them with
// the given cache budget (0: the daemon's default).
func newDaemonStack(dir string, recs []stdata.EventRec, cacheBytes int64) (*daemonStack, error) {
	st := &daemonStack{dir: dir, ctx: engine.New(engine.Config{})}
	var err error
	if st.meta, st.ingest, err = ingestEvents(st.ctx, recs, dir); err != nil {
		return nil, err
	}
	st.srv = serve.NewServer(serve.Config{Ctx: st.ctx, CacheBytes: cacheBytes})
	if err := st.srv.AddDataset("nyc", "nyc", dir); err != nil {
		st.close()
		return nil, err
	}
	if st.d, err = startDaemon(st.srv.Handler()); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// close stops whatever newDaemonStack started.
func (s *daemonStack) close() {
	if s.d != nil {
		s.d.close()
	}
	s.srv.Close()
}

// newColdStack sets up serve-cold: the daemon with the cold cache budget,
// warmed with the warm windows until its LRU is full.
func newColdStack(cfg runConfig, gen *generator, recs []stdata.EventRec, rep int, warm []selection.Window) (*daemonStack, error) {
	st, err := newDaemonStack(setupDir(cfg, rep), recs, coldCacheBytes(len(recs)))
	if err != nil {
		return nil, err
	}
	for i, w := range warm {
		if _, _, err := gen.post(st.d.url+"/query", queryBody(w, true)); err != nil {
			st.close()
			return nil, err
		}
		if i%4 != 3 {
			continue
		}
		var m serve.MetricsResponse
		if err := fetchJSON(gen, st.d.url+"/metrics", &m); err != nil {
			st.close()
			return nil, err
		}
		if m.Cache.Evictions > 0 {
			return st, nil
		}
	}
	st.close()
	return nil, fmt.Errorf("serve-cold: cache never filled in %d warm-up queries", len(warm))
}

func runServeCold(cfg runConfig) (*result, error) {
	recs := nycEvents(servingEvents(cfg), cfg.seed)
	rng := rand.New(rand.NewSource(cfg.seed))
	warm := randomWindows(rng, datagen.NYCExtent, datagen.Year2013, servingFrac, 4000)
	gen := newGenerator(cfg.clients)
	defer gen.close()

	res := newResult()
	var st *daemonStack
	if err := setUp(cfg, res, func(rep int) (func(), time.Duration, error) {
		var err error
		if st, err = newColdStack(cfg, gen, recs, rep, warm); err != nil {
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
	windows := servingWindows(rng, cfg)

	var m0, m1 serve.MetricsResponse
	if err := fetchJSON(gen, st.d.url+"/metrics", &m0); err != nil {
		return nil, err
	}
	e0 := st.ctx.Metrics.Snapshot()
	ph := runQueries(cfg, gen, st.d.url, windows)
	if err := fetchJSON(gen, st.d.url+"/metrics", &m1); err != nil {
		return nil, err
	}
	e1 := st.ctx.Metrics.Snapshot()
	ph.check(newEventOracle(recs), windows)
	res.account(ph.samples)
	lat, tlat, ok := ph.split(func(i int) bool { return tracedOp(cfg, i) })
	res.setWindow("query", ph.timed, lat, ok)
	res.note("generator: %d dials for %d queries", ph.dials, len(ph.samples))
	if !cfg.trace {
		return res, nil
	}
	queries := float64(m1.Server.Queries - m0.Server.Queries)
	qs := ph.tracedQueries(windows)
	lc, err := replayReads(st.dir, loadedPartitions(st.meta, qs), 48)
	if err != nil {
		return nil, err
	}
	if err := res.setServeLayers(ph, qs, lc); err != nil {
		return nil, err
	}
	res.setTraceOverhead(lat, tlat)
	res.setEngineLayers(engineDelta(e0, e1), queries)
	res.setServerCounters(m0.Server, m1.Server)
	res.layers["client.dials_per_op"] = ratio(float64(ph.dials), float64(len(ph.samples)))
	return res, nil
}
