package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"st4ml/internal/datagen"
	"st4ml/internal/selection"
	"st4ml/internal/serve"
	"st4ml/internal/trace"
)

// Window shape of the serving workloads: unique windows placed uniformly,
// each about 5% of every axis, with records returned.
const servingFrac = 0.05

// queryReply is the part of a POST /query reply the benchmark reads.
type queryReply struct {
	Cache     string            `json:"cache"`
	ElapsedMS float64           `json:"elapsed_ms"`
	Explain   *trace.Explain    `json:"explain"`
	Stats     selection.Stats   `json:"stats"`
	Records   []json.RawMessage `json:"records"`
}

func queryBody(w selection.Window, records bool) []byte {
	b, _ := json.Marshal(serve.QueryRequest{ // a flat struct: cannot fail
		Dataset: "nyc",
		MinX:    w.Space.MinX, MinY: w.Space.MinY, MaxX: w.Space.MaxX, MaxY: w.Space.MaxY,
		TStart: w.Time.Start, TEnd: w.Time.End,
		Records: records,
	})
	return b
}

// windowKey identifies a window across the router and its shards.
func windowKey(minX, minY, maxX, maxY float64, t0, t1 int64) string {
	return fmt.Sprintf("%v,%v,%v,%v,%d,%d", minX, minY, maxX, maxY, t0, t1)
}

// tracedOp reports whether op i of a traced run is a traced one: every
// other op is (explain=1 on the serving workloads, the tracing engine on
// extract-batch) and the rest run untraced beside it, so the tracing
// overhead is measured under the same load and store state.
func tracedOp(cfg runConfig, i int) bool { return cfg.trace && i%2 == 1 }

// servingPhase is one timed window of closed-loop queries over unique
// windows. Replies are reduced to what the oracle compares as they arrive;
// the oracle answers only the windows the window used, after it ends.
type servingPhase struct {
	timed
	got     []answer      // by window index
	replies []*queryReply // by sample; nil for untraced queries
	sizes   []int         // by sample: traced reply body bytes
	dials   int64
}

// runQueries drives unique windows at url for the run's window.
func runQueries(cfg runConfig, gen *generator, url string, windows []selection.Window) servingPhase {
	var mu sync.Mutex
	replies := map[int]*queryReply{}
	sizes := map[int]int{}
	got := make([]answer, len(windows))
	for i := range got {
		got[i].count = -1
	}
	dials0 := gen.dials.Load()
	t := closedLoop(cfg.clients, cfg.window(), len(windows), func(i int) bool {
		path := url + "/query"
		if tracedOp(cfg, i) {
			path += "?explain=1"
		}
		status, body, err := gen.post(path, queryBody(windows[i], true))
		if err != nil || status != http.StatusOK {
			return false
		}
		if cfg.tamper != nil {
			body = cfg.tamper(body)
		}
		var rep queryReply
		if err := json.Unmarshal(body, &rep); err != nil {
			return false
		}
		if rep.Stats.SelectedRecords == int64(len(rep.Records)) {
			got[i] = answer{count: rep.Stats.SelectedRecords, sum: fingerprint(rep.Records)}
		}
		if tracedOp(cfg, i) {
			rep.Records = nil
			mu.Lock()
			replies[i], sizes[i] = &rep, len(body)
			mu.Unlock()
		}
		return true
	})
	ph := servingPhase{timed: t, got: got, dials: gen.dials.Load() - dials0}
	ph.replies = make([]*queryReply, len(t.samples))
	ph.sizes = make([]int, len(t.samples))
	for k, s := range t.samples {
		ph.replies[k], ph.sizes[k] = replies[s.idx], sizes[s.idx]
	}
	return ph
}

// check compares every completed query with the oracle's answer for its
// window, marking mismatches failed.
func (ph *servingPhase) check(o *eventOracle, windows []selection.Window) {
	for k, s := range ph.samples {
		ph.samples[k].ok = s.ok && ph.got[s.idx] == o.answer(windows[s.idx], true)
	}
}

// split returns the latencies (ms) of the untraced and traced ops, and how
// many completed correctly.
func (t timed) split(traced func(idx int) bool) (untraced, tracedLat []float64, ok int64) {
	for _, s := range t.samples {
		if traced(s.idx) {
			tracedLat = append(tracedLat, s.latencyMS())
		} else {
			untraced = append(untraced, s.latencyMS())
		}
		if s.ok {
			ok++
		}
	}
	return untraced, tracedLat, ok
}

// account adds a window's ops to the result's attempted/failed counts.
func (r *result) account(samples []opSample) {
	for _, s := range samples {
		r.attempted++
		if !s.ok {
			r.failed++
		}
	}
}

// setWindow fills the metrics of a timed window: latency percentiles over
// its untraced ops, throughput of correct ops, and CPU and allocation per
// completed op, all ops of the window (traced ones included) on both sides
// of each ratio. The runtime and host figures go to the per-layer table.
func (r *result) setWindow(name string, t timed, untraced []float64, ok int64) {
	r.window = t
	ops := float64(len(t.samples))
	c := t.cost
	r.e2e["op_p50_ms"] = median(untraced)
	r.e2e["op_p90_ms"] = percentile(untraced, 0.9)
	r.e2e["ops_per_s"] = float64(ok) / c.elapsed.Seconds()
	r.e2e["cpu_ms_per_op"] = ratio(ms(c.cpu), ops)
	r.e2e["alloc_kb_per_op"] = ratio(float64(c.allocBytes)/1024, ops)
	r.e2e["rss_peak_mb"] = t.rss
	r.layers["client.op_p99_ms"] = percentile(untraced, 0.99)
	r.layers["runtime.gc_cpu_frac"] = c.gcCPUFrac
	r.layers["runtime.gc_cycles_per_op"] = ratio(float64(c.gcCycles), ops)
	r.layers["runtime.sched_latency_p90_us"] = float64(c.schedP90.Nanoseconds()) / 1e3
	r.layers["host.steal_frac"] = c.stealFrac
	r.note("%s", tailNote(name+" latency", untraced, 0.9))
	r.note("%s", tailNote(name+" latency", untraced, 0.99))
	r.note("window: %d ops in %.3f s, cpu %.3f s, %d GC cycles", len(t.samples), c.elapsed.Seconds(),
		c.cpu.Seconds(), c.gcCycles)
	r.note("host steal: %.4f of the machine's non-idle CPU time went to other guests during the timed window", c.stealFrac)
}

// setUp builds the program under test cfg.setups times and records
// setup_s as the median set-up time and storage.ingest_ms as the median
// Schema.Ingest time. build returns what stops its set-up and how long its
// ingest took; each set-up is stopped, and its stores removed, before the
// next starts, outside the time either is charged.
func setUp(cfg runConfig, res *result, build func(rep int) (stop func(), ingest time.Duration, err error)) error {
	var setups, ingests []float64
	var stop func()
	for rep := 0; rep < cfg.setups; rep++ {
		if stop != nil {
			stop()
			if err := os.RemoveAll(setupDir(cfg, rep-1)); err != nil {
				return err
			}
		}
		t0 := time.Now()
		s, ingest, err := build(rep)
		if err != nil {
			return err
		}
		stop = s
		setups = append(setups, time.Since(t0).Seconds())
		ingests = append(ingests, ms(ingest))
	}
	res.e2e["setup_s"] = median(setups)
	res.layers["storage.ingest_ms"] = median(ingests)
	res.note("set-ups (s): %s", formatList(setups))
	return nil
}

// setupDir is the directory set-up rep keeps its stores under.
func setupDir(cfg runConfig, rep int) string {
	return filepath.Join(cfg.dir, fmt.Sprintf("setup-%d", rep))
}

// servingWindows draws the unique windows a serving run may use: more than
// the fastest run completes, so the loop never runs out.
func servingWindows(rng *rand.Rand, cfg runConfig) []selection.Window {
	return randomWindows(rng, datagen.NYCExtent, datagen.Year2013, servingFrac, int(cfg.seconds*5000)+1000)
}

// fetchJSON GETs url into v.
func fetchJSON(gen *generator, url string, v any) error {
	b, err := gen.get(url)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}
