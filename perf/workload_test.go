package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
)

func smallConfig(t *testing.T, traced bool) runConfig {
	return runConfig{seed: 3, seconds: 0.5, trace: traced, dir: t.TempDir(), clients: 2, setups: 1, small: true}
}

// tamper corrupts an answer the way a wrong program would: a record's id,
// a count, or (extract-batch) a checksum.
func tamper(b []byte) []byte {
	for _, key := range []string{`"ID":`, `"SelectedRecords":`} {
		if i := bytes.Index(b, []byte(key)); i >= 0 {
			i += len(key)
			return append(append(append([]byte(nil), b[:i]...), '9'), b[i:]...)
		}
	}
	return append([]byte("1"), b...)
}

// TestWorkloadsMatchTheirOracles runs every workload on small inputs: no
// op may fail, every end-to-end metric must be positive, and the per-op
// ratios must divide by exactly the ops their numerators were measured
// over: every op the window completed, all inside the window.
func TestWorkloadsMatchTheirOracles(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			res, err := workloads[name].run(smallConfig(t, false))
			if err != nil {
				t.Fatal(err)
			}
			if res.attempted == 0 || res.failed != 0 {
				t.Fatalf("%d of %d ops failed", res.failed, res.attempted)
			}
			for _, m := range endToEnd {
				if res.e2e[m.name] <= 0 {
					t.Errorf("%s = %v, want > 0", m.name, res.e2e[m.name])
				}
			}
			w := res.window
			if int64(len(w.samples)) != res.attempted {
				t.Errorf("window charged over %d ops, %d attempted", len(w.samples), res.attempted)
			}
			for _, s := range w.samples {
				if s.start < 0 || s.end < s.start || s.end > w.cost.elapsed.Nanoseconds() {
					t.Fatalf("op %d ran [%d, %d] ns, outside the %d ns window", s.idx, s.start, s.end, w.cost.elapsed)
				}
			}
			ops := float64(len(w.samples))
			if got, want := res.e2e["cpu_ms_per_op"], ms(w.cost.cpu)/ops; got != want {
				t.Errorf("cpu_ms_per_op %v, want %v", got, want)
			}
			if got, want := res.e2e["alloc_kb_per_op"], float64(w.cost.allocBytes)/1024/ops; got != want {
				t.Errorf("alloc_kb_per_op %v, want %v", got, want)
			}
		})
	}
}

// TestIngestSequenceIsDeterministic runs ingest-serve twice on one seed:
// the fixed op sequence must write the same bytes and leave the same live
// files, so write and space amplification repeat exactly.
func TestIngestSequenceIsDeterministic(t *testing.T) {
	var amps [2][2]float64
	for i := range amps {
		res, err := runIngestServe(smallConfig(t, false))
		if err != nil {
			t.Fatal(err)
		}
		if res.failed != 0 {
			t.Fatalf("run %d: %d of %d ops failed", i, res.failed, res.attempted)
		}
		amps[i] = [2]float64{res.e2e["write_amp"], res.e2e["space_amp"]}
	}
	if amps[0] != amps[1] {
		t.Fatalf("write_amp, space_amp: %v then %v on the same seed", amps[0], amps[1])
	}
}

func TestWrongAnswerFailsTheRun(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			cfg := smallConfig(t, false)
			cfg.tamper = tamper
			res, err := workloads[name].run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.failed == 0 {
				t.Fatalf("no op failed with every answer corrupted (%d attempted)", res.attempted)
			}
			var out bytes.Buffer
			if code := finish(&out, io.Discard, name, res, false); code != 1 {
				t.Fatalf("exit code %d, want 1", code)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last struct {
				Correct bool `json:"correct"`
				Failed  int  `json:"failed"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatal(err)
			}
			if last.Correct || last.Failed == 0 {
				t.Fatalf("last line %q reports a correct run", lines[len(lines)-1])
			}
		})
	}
}

// TestLayersMapToWorkloads checks the traced runs charge each module only
// on the workloads that exercise it.
func TestLayersMapToWorkloads(t *testing.T) {
	layers := map[string]map[string]float64{}
	for _, name := range workloadNames() {
		res, err := workloads[name].run(smallConfig(t, true))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.failed != 0 {
			t.Fatalf("%s: %d of %d ops failed", name, res.failed, res.attempted)
		}
		layers[name] = res.layers
	}
	only := map[string]string{
		"cluster.": "routed-hot", "convert.": "extract-batch", "extract.": "extract-batch",
		"storage.append_ms": "ingest-serve", "storage.compact": "ingest-serve",
		"storage.delta_files_per_query": "ingest-serve", "serve.invalidated_per_append": "ingest-serve",
	}
	for name, l := range layers {
		for k, v := range l {
			for prefix, home := range only {
				if strings.HasPrefix(k, prefix) && name != home && v != 0 {
					t.Errorf("%s: %s = %v outside %s", name, k, v, home)
				}
			}
		}
		if l["wall_ms"] <= 0 {
			t.Errorf("%s: no traced ops folded", name)
		}
	}
	want := map[string][]string{
		"routed-hot":    {"cluster.rpc_ms", "cluster.scatter_width", "serve.exec_ms"},
		"serve-cold":    {"serve.loads_per_query", "index.rtree_build_ms", "storage.read_alloc_kb", "index.rtree_alloc_kb"},
		"extract-batch": {"convert.traj_to_sm_ms", "extract.grid_speed_ms", "selection.select_ms", "convert.alloc_kb_per_op", "engine.tasks_per_op"},
		"ingest-serve": {"storage.append_ms", "storage.compact_ms", "storage.compactions", "storage.delta_files_per_query",
			"serve.invalidated_per_append", "serve.result_hit_ratio", "serve.loads_per_query"},
	}
	for name, keys := range want {
		for _, k := range keys {
			if layers[name][k] <= 0 {
				t.Errorf("%s: %s = %v, want > 0", name, k, layers[name][k])
			}
		}
	}
	if l := layers["routed-hot"]; l["serve.loads_per_query"] != 0 || l["index.rtree_build_ms"] != 0 {
		t.Errorf("routed-hot: loads/query %v, rtree build %v ms; want 0, 0",
			l["serve.loads_per_query"], l["index.rtree_build_ms"])
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metric
// tables the program prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, w := range spec.Workloads {
		listed[w.Name] = true
		if got, ok := workloads[w.Name]; !ok || got.why != w.Why {
			t.Errorf("workload %s: why %q in BENCHMARK.json, %q in the program", w.Name, w.Why, got.why)
		}
	}
	for name := range workloads {
		if !listed[name] {
			t.Errorf("workload %s missing from BENCHMARK.json", name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit || (got[i].Better == "higher") != higherIsBetter[want[i].name] {
				t.Errorf("%s[%d]: %s (%s) in BENCHMARK.json, %s (%s) in the program",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
