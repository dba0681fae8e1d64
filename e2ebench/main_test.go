package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"skybench/serve"
)

// benchmarkFile is the part of BENCHMARK.json the benchmark must agree
// with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

// TestBenchmarkFile checks that BENCHMARK.json names exactly the
// workloads and metrics this command runs and reports.
func TestBenchmarkFile(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if w.Why == "" {
			t.Errorf("workload %s has no reason", w.Name)
		}
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, command runs %s", got, want)
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, command reports %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i := range min(len(bf.EndToEnd), len(endToEnd)) {
		got, want := bf.EndToEnd[i], endToEnd[i]
		if got.Name != want.name || got.Unit != want.unit || got.Better != want.better {
			t.Errorf("end_to_end[%d] is %s %s %s, command reports %s %s %s", i, got.Name, got.Unit, got.Better, want.name, want.unit, want.better)
		}
		if got.Bound <= 0 || got.Bound > 0.25 {
			t.Errorf("end_to_end %s bound %v outside (0, 0.25]", got.Name, got.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, command reports %d", len(bf.PerLayer), len(perLayer))
	}
	for i := range min(len(bf.PerLayer), len(perLayer)) {
		got, want := bf.PerLayer[i], perLayer[i]
		if got.Name != want.name || got.Unit != want.unit || got.Better != want.better {
			t.Errorf("per_layer[%d] is %s %s %s, command reports %s %s %s", i, got.Name, got.Unit, got.Better, want.name, want.unit, want.better)
		}
	}
}

// TestSmoke runs every workload at a small size, untraced and traced,
// and checks that every metric prints with its unit, that the last
// output line is the result object, and that nothing failed.
func TestSmoke(t *testing.T) {
	for _, w := range workloadNames() {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w, traced), func(t *testing.T) {
				cfg := config{workload: w, seed: 3, window: 600 * time.Millisecond, trace: traced, scale: 0.02, out: t.TempDir()}
				rep, r, err := execute(cfg)
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				printHuman(&out, cfg, r)
				line, err := json.Marshal(rep)
				if err != nil {
					t.Fatal(err)
				}
				var keys map[string]json.RawMessage
				if err := json.Unmarshal(line, &keys); err != nil || len(keys) != 4 ||
					keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
					t.Errorf("result line %s, want exactly correct, attempted, failed and metrics", line)
				}
				if raceEnabled && len(r.invalid) == 1 && r.wrong == 0 && strings.HasPrefix(r.invalid[0], "stream-churn: writer ran") {
					// The open-loop writer cannot hold 100 rounds/s under the
					// race detector; the run still exercised every code path.
					t.Skip(r.invalid[0])
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
					t.Fatalf("run not clean: correct %v, %d of %d failed\n%s", rep.Correct, rep.Failed, rep.Attempted, out.String())
				}
				if v := r.layers["error_ratio"].Value; v != 0 {
					t.Errorf("error_ratio %v, want 0", v)
				}
				defs, kind := endToEnd, "end_to_end"
				if traced {
					defs, kind = perLayer, "per_layer"
				}
				if len(rep.Metrics) != len(defs) {
					t.Errorf("%d metrics in the result, want %d", len(rep.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := rep.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: got %+v, want unit %s", d.name, m, d.unit)
					}
					if !strings.Contains(out.String(), fmt.Sprintf("%s %s", kind, d.name)) {
						t.Errorf("metric %s not printed", d.name)
					}
				}
				if !traced {
					for _, d := range endToEnd {
						if rep.Metrics[d.name].Value <= 0 {
							t.Errorf("end-to-end metric %s is %v, want > 0", d.name, rep.Metrics[d.name].Value)
						}
					}
				} else if _, err := os.Stat(fmt.Sprintf("%s/spans-%s-seed3.json", cfg.out, w)); err != nil {
					t.Errorf("span dump: %v", err)
				}
			})
		}
	}
}

// TestAntiRequests checks that every cycle of the anti-sharded sequence
// sends the same mix of compositions at each band width, alternates
// the band width, and never repeats a shape.
func TestAntiRequests(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		reqs := antiRequests(rand.New(rand.NewSource(seed)), 8, 8*antiCycle)
		if len(reqs) != 8*antiCycle {
			t.Fatalf("seed %d: %d requests, want %d", seed, len(reqs), 8*antiCycle)
		}
		seen := make(map[string]bool)
		var first string
		for c := 0; c < 8; c++ {
			var mix []string
			for i, q := range reqs[c*antiCycle : (c+1)*antiCycle] {
				if want := 1 + 3*(i%2); q.SkybandK != want {
					t.Fatalf("seed %d cycle %d request %d: k=%d, want %d", seed, c, i, q.SkybandK, want)
				}
				fp := serve.QueryFingerprint(&q)
				if seen[fp] {
					t.Fatalf("seed %d: shape %v k=%d repeats", seed, q.Prefs, q.SkybandK)
				}
				seen[fp] = true
				var ign, mx int
				for _, p := range q.Prefs {
					switch p {
					case "ignore":
						ign++
					case "max":
						mx++
					}
				}
				mix = append(mix, fmt.Sprintf("k%d/i%d/x%d", q.SkybandK, ign, mx))
			}
			sort.Strings(mix)
			if got := strings.Join(mix, " "); c == 0 {
				first = got
			} else if got != first {
				t.Fatalf("seed %d cycle %d mix differs from cycle 0:\n%s\n%s", seed, c, got, first)
			}
		}
	}
}
