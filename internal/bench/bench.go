// Package bench is the experiment harness: it regenerates every table
// and figure of the paper's evaluation (Section VII) as textual tables.
// cmd/experiments exposes it on the command line; the repository-root
// benchmarks exercise the same workloads under testing.B.
//
// Scales default to laptop-affordable sizes (the paper used a 16-core
// Xeon with n up to 8M; see DESIGN.md §5) but every sweep is
// configurable up to paper scale through Config.
package bench

import (
	"context"
	"fmt"
	"io"
	"time"

	"skybench"

	"skybench/internal/dataset"
	"skybench/internal/point"
)

// Config sets the workload scales shared by all experiments.
type Config struct {
	// N is the base cardinality (the paper's 1M default, scaled down).
	N int
	// D is the base dimensionality (the paper uses 12).
	D int
	// Dims is the dimensionality sweep (the paper uses 6–16).
	Dims []int
	// NSweep is the cardinality sweep (the paper uses 0.5M–8M).
	NSweep []int
	// Threads is the thread sweep for scalability experiments.
	Threads []int
	// MaxThreads is the thread count for "t = 16"-style comparisons.
	MaxThreads int
	// Reps is the number of repetitions averaged per measurement.
	Reps int
	// Seed drives dataset generation.
	Seed int64
	// RealScale scales the real-dataset stand-ins (1 = published size).
	RealScale float64
	// MaxDims lists dimension indices whose values are maximized instead
	// of minimized: the generated workloads are rewritten once (columns
	// negated) so every experiment measures the mixed-preference variant
	// of its workload. Indices beyond a sweep's dimensionality are
	// ignored.
	MaxDims []int
	// SubDims, when non-empty, restricts the workloads to a subspace:
	// only the listed dimension indices are kept. Indices beyond a
	// sweep's dimensionality are ignored.
	SubDims []int
	// StreamUpdates is the measured operation count of the stream
	// maintenance experiment (after N warm-up inserts).
	StreamUpdates int
	// StreamChurn is the delete fraction of the stream experiment's
	// update mix.
	StreamChurn float64
	// SkybandKs is the k sweep of the skyband experiment (empty selects
	// 1,2,4,8,16). It also sets the band parameter of the stream
	// experiment when StreamSkybandK is set.
	SkybandKs []int
	// StreamSkybandK is the band parameter of the stream maintenance
	// experiment (≤ 1 maintains the plain skyline).
	StreamSkybandK int
	// Shards is the partition sweep of the sharded-serving experiment
	// (empty selects 1,2,4,8; the leading 1 anchors the exactness
	// cross-check).
	Shards []int
}

// Default returns the laptop-scale defaults documented in DESIGN.md.
func Default() Config {
	return Config{
		N:             20000,
		D:             8,
		Dims:          []int{4, 6, 8, 10, 12},
		NSweep:        []int{5000, 10000, 20000, 40000, 80000},
		Threads:       []int{1, 2, 4, 8, 16},
		MaxThreads:    16,
		Reps:          1,
		Seed:          42,
		RealScale:     0.05,
		StreamUpdates: 20000,
		StreamChurn:   0.2,
	}
}

// PaperScale returns the paper's original workload parameters. Running
// them in Go on a small machine takes hours; provided for completeness.
func PaperScale() Config {
	return Config{
		N:             1000000,
		D:             12,
		Dims:          []int{6, 8, 10, 12, 14, 16},
		NSweep:        []int{500000, 1000000, 2000000, 4000000, 8000000},
		Threads:       []int{1, 2, 4, 8, 16},
		MaxThreads:    16,
		Reps:          1,
		Seed:          42,
		RealScale:     1,
		StreamUpdates: 1000000,
		StreamChurn:   0.2,
	}
}

// Measurement is one timed algorithm run.
type Measurement struct {
	Algorithm skybench.Algorithm
	Threads   int
	Elapsed   time.Duration
	Stats     skybench.Stats
}

// Run executes one algorithm over m, averaging cfg.Reps repetitions on
// a fresh Engine of the given thread budget (closed afterwards, so no
// experiment inherits another's warm scratch).
func (cfg Config) Run(alg skybench.Algorithm, m point.Matrix, threads int, extra func(*skybench.Query)) Measurement {
	reps := cfg.Reps
	if reps < 1 {
		reps = 1
	}
	q := skybench.Query{Algorithm: alg, Threads: threads}
	if extra != nil {
		extra(&q)
	}
	ds, err := skybench.DatasetFromFlat(m.Flat(), m.N(), m.D())
	if err != nil {
		panic(fmt.Sprintf("bench: %s dataset: %v", alg, err))
	}
	eng := skybench.NewEngine(threads)
	defer eng.Close()
	var total time.Duration
	var last skybench.Result
	for r := 0; r < reps; r++ {
		res, err := eng.Run(context.Background(), ds, q)
		if err != nil {
			panic(fmt.Sprintf("bench: %s failed: %v", alg, err))
		}
		total += res.Stats.Elapsed
		last = res
	}
	return Measurement{
		Algorithm: alg,
		Threads:   threads,
		Elapsed:   total / time.Duration(reps),
		Stats:     last.Stats,
	}
}

// gen produces a dataset for the experiment grid, applying the
// preference rewrite (MaxDims/SubDims) when one is configured.
func (cfg Config) gen(dist dataset.Distribution, n, d int) point.Matrix {
	m := dataset.Generate(dist, n, d, cfg.Seed)
	if len(cfg.MaxDims) == 0 && len(cfg.SubDims) == 0 {
		return m
	}
	ops := make([]point.PrefOp, d)
	if len(cfg.SubDims) > 0 {
		for i := range ops {
			ops[i] = point.PrefDrop
		}
		for _, i := range cfg.SubDims {
			if i >= 0 && i < d {
				ops[i] = point.PrefKeep
			}
		}
	}
	for _, i := range cfg.MaxDims {
		if i >= 0 && i < d && ops[i] != point.PrefDrop {
			ops[i] = point.PrefNegate
		}
	}
	de := point.EffectiveDims(ops)
	if de == 0 {
		// Every configured SubDims index fell outside this sweep's
		// dimensionality; silently measuring the full space would label
		// baseline numbers as subspace numbers.
		panic(fmt.Sprintf("bench: SubDims %v leave no dimensions at d=%d", cfg.SubDims, d))
	}
	if point.IdentityOps(ops) {
		return m
	}
	dst := make([]float64, n*de)
	point.StagePrefs(dst, m.Flat(), n, d, ops)
	return point.FromFlat(dst, n, de)
}

// ms formats a duration as fractional milliseconds.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d.Nanoseconds())/1e6)
}

// header prints an experiment banner.
func header(w io.Writer, title, note string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
	if note != "" {
		fmt.Fprintf(w, "%s\n", note)
	}
}
