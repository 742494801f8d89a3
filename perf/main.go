// Command perf is the repository's benchmark. Each run drives one seeded
// workload against the program in this process, checks every answer
// against an independent oracle, and prints its metrics by name with their
// units; the last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones. With -trace 1 about
// half the ops are traced, the rest run untraced beside them, and the run
// prints the per-layer metrics: each traced op's wall time folded onto the
// modules (serve, cluster, storage, index, selection, convert, extract,
// engine) and what no span covers (unattributed_ms), the counters each
// layer exposes, the Go runtime's, and the tracing overhead against the
// untraced ops. Everything is measured from outside the program: timed
// calls to public functions and constructors, the counters /metrics and
// engine.Metrics expose, the spans an explain=1 query reports, getrusage
// and runtime/metrics.
//
// Run it through run.sh, which builds it from source:
//
//	bash perf/run.sh --workload serve-cold --seed 1 --seconds 15 --trace 0
//
// and spread.py to see each metric's quartiles across seeds. README.md
// describes the workloads, metrics and oracles.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

type metricDef struct {
	name, unit, help string
}

// higherIsBetter lists the metrics whose larger values are better.
var higherIsBetter = map[string]bool{
	"ops_per_s": true, "serve.result_hit_ratio": true, "storage.blocks_pruned_frac": true,
}

// endToEnd are the metrics a user of the system sees, defined and non-zero
// on every workload. An "op" is the workload's unit of user-visible work: a
// query on serve-cold and routed-hot, one window through the three Table 7
// pipelines on extract-batch, and one append followed by its dashboard
// queries on ingest-serve. Per-op costs divide by every op the timed window
// completed, the same ops their numerators were measured over.
var endToEnd = []metricDef{
	{"setup_s", "s", "store ingest, daemon start and warm-up until timing starts (median of the run's set-ups)"},
	{"op_p50_ms", "ms", "client-observed op latency, median"},
	{"op_p90_ms", "ms", "client-observed op latency, p90"},
	{"ops_per_s", "1/s", "oracle-correct ops completed per second of the timed window"},
	{"cpu_ms_per_op", "ms", "process user+sys CPU time (getrusage) over the timed window per completed op"},
	{"alloc_kb_per_op", "KiB", "Go heap bytes allocated (/gc/heap/allocs:bytes) over the timed window per completed op"},
	{"rss_peak_mb", "MiB", "peak resident memory in the timed window (median of 0.5 s interval peaks)"},
	{"write_amp", "ratio", "bytes the program wrote to storage per user byte handed to it"},
	{"space_amp", "ratio", "bytes of live, manifest-referenced files at the end per user byte stored"},
}

// perLayer are the traced run's metrics. Metrics of a module a workload
// does not exercise read 0.
var perLayer = []metricDef{
	{"wall_ms", "ms", "traced op wall time, mean per op"},
	{"unattributed_ms", "ms", "op wall time no layer span covers, mean per op"},
	{"trace.overhead_frac", "ratio", "(traced - untraced) / untraced op p50"},
	{"serve.self_ms", "ms", "serve layer self time per op"},
	{"cluster.self_ms", "ms", "cluster layer self time per op"},
	{"storage.self_ms", "ms", "storage layer self time per op"},
	{"index.self_ms", "ms", "index layer self time per op"},
	{"selection.self_ms", "ms", "selection layer self time per op"},
	{"convert.self_ms", "ms", "convert layer self time per op"},
	{"extract.self_ms", "ms", "extract layer self time per op"},
	{"engine.self_ms", "ms", "engine layer self time per op"},

	{"serve.admission_wait_ms", "ms", "admission:wait self time per query"},
	{"serve.loads_per_query", "count", "/metrics partition loads per query"},
	{"serve.partition_load_ms", "ms", "partition load time per query: loads x replayed idle median LoadPartition (single daemon), shard partition:load spans (routed)"},
	{"serve.result_hit_ratio", "ratio", "/metrics result-cache hits / lookups"},
	{"serve.invalidated_per_append", "count", "cache entries a generation bump dropped, per append"},
	{"serve.exec_ms", "ms", "server elapsed_ms per query"},
	{"serve.edge_ms", "ms", "client latency - server elapsed_ms per query"},
	{"serve.response_bytes", "bytes", "response body bytes per query"},

	{"storage.read_ms", "ms", "partition read time per op: partition:read spans (extract-batch, routed), loads x replayed idle median read (single daemon)"},
	{"storage.read_alloc_kb", "KiB", "heap allocated by one replayed ReadPartitionPruned, median"},
	{"storage.raw_bytes_per_op", "bytes", "bytes decompressed per op"},
	{"storage.blocks_pruned_frac", "ratio", "blocks pruned / blocks considered"},
	{"storage.append_ms", "ms", "Schema.Append call time, median"},
	{"storage.deltas_per_append", "count", "delta files one append added to the manifest, mean"},
	{"storage.files_written_per_op", "count", "delta, rewritten partition and manifest files written per op"},
	{"storage.delta_files_per_query", "count", "delta files read per query"},
	{"storage.compact_ms", "ms", "Schema.Compact call time, median over passes that rewrote"},
	{"storage.compact_bytes", "bytes", "bytes one compaction pass rewrote, mean"},
	{"storage.compactions", "count", "compaction passes that rewrote partitions"},
	{"storage.ingest_ms", "ms", "Schema.Ingest time, median over set-ups"},

	{"index.rtree_build_ms", "ms", "R-tree build time per op: rtree:build spans (extract-batch, routed), loads x replayed idle median BulkLoadSTR (single daemon)"},
	{"index.rtree_alloc_kb", "KiB", "heap allocated by one replayed BulkLoadSTR, median"},
	{"index.rtree_items", "count", "items per R-tree build"},

	{"cluster.scatter_ms", "ms", "router query self time (plan, scatter, merge) per query"},
	{"cluster.rpc_ms", "ms", "rpc:shard self time (transport and shard HTTP edge) per query"},
	{"cluster.subquery_ms", "ms", "shard-side subquery span duration per query"},
	{"cluster.scatter_width", "count", "shards touched per routed query"},
	{"cluster.dials_per_query", "count", "connections accepted by the shard listeners per routed query"},
	{"cluster.retries", "count", "hedges + failovers + replans"},

	{"selection.select_ms", "ms", "selection steps per op"},
	{"convert.event_to_ts_ms", "ms", "hourly-flow conversion step per op"},
	{"convert.traj_to_sm_ms", "ms", "grid-speed conversion step per op"},
	{"convert.traj_to_raster_ms", "ms", "transition conversion step per op"},
	{"extract.hourly_flow_ms", "ms", "hourly-flow extraction step per op"},
	{"extract.grid_speed_ms", "ms", "grid-speed extraction step per op"},
	{"extract.transition_ms", "ms", "transition extraction step per op"},
	{"selection.alloc_kb_per_op", "KiB", "heap allocated by the selection steps per op"},
	{"convert.alloc_kb_per_op", "KiB", "heap allocated by the conversion steps per op"},
	{"extract.alloc_kb_per_op", "KiB", "heap allocated by the extraction steps per op"},

	{"engine.tasks_per_op", "count", "engine tasks per op"},
	{"engine.task_ms_per_op", "ms", "engine task time per op"},
	{"engine.shuffle_bytes_per_op", "bytes", "engine shuffle bytes per op"},
	{"engine.retries", "count", "engine task retries"},

	{"runtime.gc_cpu_frac", "ratio", "GC share of the runtime's CPU time in the timed window"},
	{"runtime.gc_cycles_per_op", "count", "GC cycles per op in the timed window"},
	{"runtime.sched_latency_p90_us", "us", "time runnable goroutines waited for a CPU, p90"},

	{"client.op_p99_ms", "ms", "untraced op latency, p99 (sample count in the notes)"},
	{"client.dials_per_op", "count", "connections the load generator dialed per op"},
	{"host.steal_frac", "ratio", "share of the machine's non-idle CPU time stolen in the timed window"},
}

// runConfig is what a workload receives.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	dir     string // scratch directory, removed by the caller
	clients int    // closed-loop client goroutines and connections
	setups  int    // set-ups per run; setup_s is their median
	small   bool   // tiny inputs, for the benchmark's own tests
	// tamper, when set, rewrites every answer before the oracle sees it;
	// the benchmark's tests use it to prove a wrong answer fails the run.
	tamper func([]byte) []byte
}

func (c runConfig) window() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// result is one workload run's outcome.
type result struct {
	attempted, failed int64
	e2e               map[string]float64
	layers            map[string]float64
	notes             []string
	window            timed // the timed window the per-op metrics divide over
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layers: map[string]float64{}}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

type workload struct {
	why string
	// setups is how many set-ups a run makes; setup_s is their median.
	// The host's speed drifts over stretches of seconds, so a median over
	// a few seconds of set-ups moves with one slow stretch: short set-ups
	// are repeated until a run spends seven seconds or more setting up.
	setups int
	run    func(runConfig) (*result, error)
}

var workloads = map[string]workload{
	"serve-cold":    {why: "partition fetch (read, decode, R-tree build, eviction) dominates: unique windows over a cache a quarter of the store", setups: 5, run: runServeCold},
	"routed-hot":    {why: "router tax: scatter, shard RPC, merge and the HTTP/JSON edge over fully cached shards", setups: 5, run: runRoutedHot},
	"extract-batch": {why: "Table 7 pipelines in-process: selection, conversion, extraction and engine stages, no HTTP", setups: 41, run: runExtractBatch},
	"ingest-serve":  {why: "the only writer: fixed append sequence with compaction, then cached dashboard reads invalidated by each commit", setups: 41, run: runIngestServe},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), "|"))
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "length of each timed window")
	traceFlag := fs.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	workdir := fs.String("workdir", ".bench_build", "directory for scratch stores (a fresh subdirectory is made and removed)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perf: need -workload %s, -seconds > 0, -trace 0|1\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perf:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*workdir, "work-")
	if err != nil {
		fmt.Fprintln(stderr, "perf:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	cfg := runConfig{
		seed: *seed, seconds: *seconds, trace: *traceFlag == 1, dir: dir,
		clients: min(2, runtime.NumCPU()), setups: w.setups,
	}
	fmt.Fprintln(stdout, "# "+hostLine(cfg.seed, cfg.seconds, dir))
	fmt.Fprintf(stdout, "# workload %s: %s\n", *name, w.why)
	res, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perf: %s: %v\n", *name, err)
		return 1
	}
	return finish(stdout, stderr, *name, res, cfg.trace)
}

// finish prints a run's report and returns the exit code: 0 only when
// every attempted operation succeeded and matched its oracle.
func finish(stdout, stderr io.Writer, name string, res *result, traced bool) int {
	correct := res.failed == 0 && res.attempted > 0
	if err := report(stdout, res, traced, correct); err != nil {
		fmt.Fprintln(stderr, "perf:", err)
		return 1
	}
	if !correct {
		fmt.Fprintf(stderr, "perf: %s: %d of %d operations failed\n", name, res.failed, res.attempted)
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the notes, a name/value/unit table and the JSON line.
func report(w io.Writer, res *result, traced, correct bool) error {
	for _, n := range res.notes {
		fmt.Fprintln(w, "# "+n)
	}
	fmt.Fprintf(w, "# fail_frac %.6f (%d failed of %d attempted)\n",
		ratio(float64(res.failed), float64(res.attempted)), res.failed, res.attempted)
	defs, vals := endToEnd, res.e2e
	if traced {
		defs, vals = perLayer, res.layers
	}
	metrics := make(map[string]metricOut, len(defs))
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		metrics[d.name] = metricOut{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "%-32s %14.4f %-6s %s\n", d.name, v, d.unit, d.help)
	}
	b, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{correct, res.attempted, res.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
