package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// Every workload runs end to end on tiny inputs, untraced and traced,
// passes its output checks, and reports exactly the metrics
// BENCHMARK.json names.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: name, seed: 11, seconds: 1, trace: trace, smoke: true, work: t.TempDir()}
			rep, err := workloads[name](cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !rep.correct {
				t.Fatalf("%s trace=%v: checks failed: %v", name, trace, rep.problems)
			}
			if rep.attempted == 0 || rep.failed != 0 {
				t.Fatalf("%s trace=%v: attempted %d, failed %d", name, trace, rep.attempted, rep.failed)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(rep.metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(rep.metrics), len(want))
			}
			for _, d := range want {
				m, ok := rep.metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: missing %s", name, trace, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s: %s unit %q, want %q", name, d.Name, m.Unit, d.Unit)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want > 0", name, d.Name, m.Value)
				}
			}
			if _, err := rep.resultLine(); err != nil {
				t.Errorf("%s trace=%v: %v", name, trace, err)
			}
			if trace {
				path := filepath.Join(cfg.work, "trace-"+name+"-11.jsonl")
				if info, err := os.Stat(path); err != nil || info.Size() == 0 {
					t.Errorf("%s: no spans written to %s", name, path)
				}
			}
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json the benchmark defines.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// BENCHMARK.json lists the workloads this program runs, each with its
// reason, and the metrics it reports, as the tables here define them.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		if workloads[w.Name] == nil || w.Why == "" {
			t.Errorf("workload %q: unknown or without a reason", w.Name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d here", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end %d: %+v, table %+v", i, m, d)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d here", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || d.Moves == "" {
			t.Errorf("per-layer %d: %+v, table %+v", i, m, d)
		}
	}
}
