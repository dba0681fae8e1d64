// Command e2ebench is the repository's end-to-end benchmark. It serves
// seeded inputs from an in-process skyserved (serve.New on a loopback
// listener), drives it through serve/client exactly as a remote user
// would, checks every answer, and prints the end-to-end metrics by name
// with their units; with -trace 1 it also times the calls into each
// layer's public functions and prints the per-layer metrics instead.
//
//	bash e2ebench/run.sh --workload hot-hits --seed 7 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"query_p50_ms": {"value": 27.1, "unit": "ms"}, ...}}
//
// A wrong answer, or a workload self-check that fails (cache behaviour,
// writer lateness, live-set size), makes the run invalid: the command
// prints correct=false without metrics and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// workloads maps each workload name to the function that runs it. The
// one-line reasons are recorded in BENCHMARK.json beside the names.
var workloads = map[string]func(*run) error{
	"anti-sharded": runAntiSharded,
	"hot-hits":     runHotHits,
	"stream-churn": runStreamChurn,
}

// metricDef names a reported metric, its unit, and which direction is
// better.
type metricDef struct{ name, unit, better string }

// endToEnd lists the metrics every untraced run reports: what a user of
// skyserved sees.
var endToEnd = []metricDef{
	{"query_p50_ms", "ms", "lower"},
	{"query_p90_ms", "ms", "lower"},
	{"query_per_s", "1/s", "higher"},
	{"max_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer lists the metrics every traced run reports. A layer a
// workload does not reach (the shard merge on an unsharded collection,
// the WAL on a static one) reports 0.
var perLayer = []metricDef{
	{"engine.run_ms", "ms", "lower"},
	{"engine.init_ms", "ms", "lower"},
	{"engine.prefilter_ms", "ms", "lower"},
	{"engine.pivot_ms", "ms", "lower"},
	{"engine.phase1_ms", "ms", "lower"},
	{"engine.phase2_ms", "ms", "lower"},
	{"engine.compress_ms", "ms", "lower"},
	{"engine.other_ms", "ms", "lower"},
	{"engine.dominance_tests_t1", "count", "lower"},
	{"engine.t1_ms", "ms", "lower"},
	{"engine.speedup", "ratio", "higher"},
	{"engine.prefilter_pruned_ratio", "ratio", "higher"},
	{"engine.phase1_survivor_ratio", "ratio", "lower"},
	{"engine.request_ms", "ms", "lower"},
	{"point.ns_per_dt", "ns", "lower"},
	{"shard.merge_ms", "ms", "lower"},
	{"shard.candidates", "count", "lower"},
	{"shard.candidate_yield", "ratio", "higher"},
	{"shard.skew", "ratio", "lower"},
	{"store.run_ms", "ms", "lower"},
	{"store.self_ms", "ms", "lower"},
	{"store.cache_hit_ratio", "ratio", "higher"},
	{"stream.snapshot_ms", "ms", "lower"},
	{"serve.ttfb_ms", "ms", "lower"},
	{"serve.self_ms", "ms", "lower"},
	{"serve.resp_bytes", "B", "lower"},
	{"client.body_ms", "ms", "lower"},
	{"client.retries", "count", "lower"},
	{"runtime.alloc_bytes_per_query", "B", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"stream.dts_per_mutation", "count", "lower"},
	{"stream.rebuilds", "count", "lower"},
	{"stream.resurrections", "count", "lower"},
	{"stream.churn_per_mutation", "ratio", "lower"},
	{"wal.fsyncs", "count", "lower"},
	{"wal.checkpoints", "count", "lower"},
	{"wal.checkpoint_ms", "ms", "lower"},
	{"wal.bytes_per_user_byte", "ratio", "lower"},
	{"write_p50_ms", "ms", "lower"},
	{"write_p90_ms", "ms", "lower"},
	{"mutations_per_s", "1/s", "higher"},
	{"loadgen.late_p90_ms", "ms", "lower"},
	{"trace.request_ms", "ms", "lower"},
	{"trace.residual_ms", "ms", "lower"},
	{"trace.overhead_ms", "ms", "lower"},
	{"error_ratio", "ratio", "lower"},
}

// complete checks a metric set against its definitions: every reported
// name is defined with the same unit, and every defined name is
// reported — or, where fill, set to 0.
func complete(m map[string]metric, defs []metricDef, fill bool) error {
	known := make(map[string]string, len(defs))
	for _, d := range defs {
		known[d.name] = d.unit
		if _, ok := m[d.name]; !ok {
			if !fill {
				return fmt.Errorf("metric %s was not measured", d.name)
			}
			m[d.name] = metric{0, d.unit}
		}
	}
	for name, v := range m {
		if unit, ok := known[name]; !ok || unit != v.Unit {
			return fmt.Errorf("metric %s (%s) is not defined with that unit", name, v.Unit)
		}
	}
	return nil
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	window   time.Duration // measurement window
	trace    bool
	scale    float64 // input size factor: 1 is the benchmark, tests use less
	out      string  // directory for scratch files and the span dump
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run accumulates one invocation's measurements and verdicts.
type run struct {
	cfg    config
	tr     *tracer // nil unless traced
	e2e    map[string]metric
	layers map[string]metric
	notes  []string

	attempted, failed int64
	mu                sync.Mutex // guards wrong: clients check answers concurrently
	wrong             int64
	invalid           []string // failed self-checks
}

func (r *run) setE2E(name string, v float64, unit string) { r.e2e[name] = metric{v, unit} }

func (r *run) setLayer(name string, v float64, unit string) { r.layers[name] = metric{v, unit} }

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// mismatch records a wrong answer.
func (r *run) mismatch(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.wrong++
	if r.wrong <= 5 {
		fmt.Fprintf(os.Stderr, "e2ebench: wrong answer: "+format+"\n", args...)
	}
}

// selfCheck marks the run invalid unless ok holds.
func (r *run) selfCheck(ok bool, format string, args ...any) {
	if !ok {
		r.invalid = append(r.invalid, fmt.Sprintf(format, args...))
	}
}

// window is the length of one load window. The traced run splits the
// run's time between an untraced and a traced window.
func (r *run) window() time.Duration {
	if r.cfg.trace {
		return r.cfg.window / 2
	}
	return r.cfg.window
}

// n scales a full-size input count, keeping at least lo.
func (r *run) n(full, lo int) int { return max(lo, int(float64(full)*r.cfg.scale)) }

// report is the final output line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var seconds float64
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs and request sequence")
	flag.Float64Var(&seconds, "seconds", 30, "measured time in seconds (the traced run halves it between its two windows)")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced run and reports per-layer metrics")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for scratch files and span dumps")
	flag.Parse()
	cfg.window = time.Duration(seconds * float64(time.Second))
	cfg.scale = 1
	cfg.trace = trace == 1
	rep, r, err := execute(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	printHuman(os.Stdout, cfg, r)
	line, _ := json.Marshal(rep)
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// execute runs one workload and builds its report. A run with a wrong
// answer or a failed self-check reports correct=false and no metrics.
func execute(cfg config) (*report, *run, error) {
	drive, ok := workloads[cfg.workload]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if cfg.window <= 0 || cfg.scale <= 0 {
		return nil, nil, fmt.Errorf("-seconds and -scale must be positive")
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, nil, err
	}
	r := &run{cfg: cfg, e2e: map[string]metric{}, layers: map[string]metric{}}
	if cfg.trace {
		r.tr = newTracer()
	}
	if err := drive(r); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	r.failed += r.wrong
	errRatio := ratio(float64(r.failed), float64(r.attempted))
	r.setLayer("error_ratio", errRatio, "ratio")
	rep := &report{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	rep.Correct = r.wrong == 0 && len(r.invalid) == 0 && r.attempted > 0
	if !rep.Correct {
		return rep, r, nil
	}
	if cfg.trace {
		if err := complete(r.layers, perLayer, true); err != nil {
			return nil, nil, err
		}
		rep.Metrics = r.layers
		if err := r.writeSpans(); err != nil {
			return nil, nil, err
		}
	} else {
		if err := complete(r.e2e, endToEnd, false); err != nil {
			return nil, nil, err
		}
		rep.Metrics = r.e2e
	}
	return rep, r, nil
}

// stamp describes the machine and build a result was measured on.
func stamp(cfg config) map[string]any {
	return map[string]any{
		"workload":     cfg.workload,
		"seed":         cfg.seed,
		"seconds":      cfg.window.Seconds(),
		"trace":        cfg.trace,
		"scale":        cfg.scale,
		"num_cpu":      runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"go_version":   runtime.Version(),
		"goarch":       runtime.GOARCH,
		"cpu_features": cpuFeatures(),
	}
}

// printHuman prints the stamp, notes, verdicts and every metric, one per
// line, ahead of the JSON line.
func printHuman(w io.Writer, cfg config, r *run) {
	st, _ := json.Marshal(stamp(cfg))
	fmt.Fprintf(w, "# env %s\n", st)
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	fmt.Fprintf(w, "# attempted %d failed %d wrong %d error_ratio %.6g\n",
		r.attempted, r.failed, r.wrong, ratio(float64(r.failed), float64(r.attempted)))
	for _, inv := range r.invalid {
		fmt.Fprintf(w, "# INVALID: %s\n", inv)
	}
	for _, set := range []struct {
		kind string
		m    map[string]metric
	}{{"end_to_end", r.e2e}, {"per_layer", r.layers}} {
		names := make([]string, 0, len(set.m))
		for n := range set.m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "%s %-32s %14.6g %s\n", set.kind, n, set.m[n].Value, set.m[n].Unit)
		}
	}
}

// writeSpans writes the traced run's spans, with the stamp, once at the
// end of the run.
func (r *run) writeSpans() error {
	path := filepath.Join(r.cfg.out, fmt.Sprintf("spans-%s-seed%d.json", r.cfg.workload, r.cfg.seed))
	r.tr.mu.Lock()
	data, err := json.Marshal(map[string]any{"env": stamp(r.cfg), "spans": r.tr.spans})
	r.tr.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	r.note("spans written to %s", path)
	return nil
}
