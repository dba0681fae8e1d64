package bench

import (
	"fmt"
	"io"

	"skybench"

	"skybench/internal/dataset"
)

// fig56Algos are the five algorithms of Figures 5 and 6: the sequential
// state of the art plus the four parallel competitors.
var fig56Algos = []skybench.Algorithm{
	skybench.BSkyTree, skybench.Hybrid, skybench.PBSkyTree,
	skybench.QFlow, skybench.PSkyline,
}

// Fig4 reports skyline sizes for the synthetic workloads: |SKY| as a
// function of cardinality (d fixed) and of dimensionality (n fixed),
// for all three distributions.
func (cfg Config) Fig4(w io.Writer) {
	header(w, "Figure 4: skyline sizes in synthetic data",
		fmt.Sprintf("left: vary n at d=%d; right: vary d at n=%d", cfg.D, cfg.N))
	fmt.Fprintf(w, "%-16s %10s %6s %12s %8s\n", "distribution", "n", "d", "|skyline|", "frac")
	for _, dist := range dataset.AllDistributions {
		for _, n := range cfg.NSweep {
			m := cfg.gen(dist, n, cfg.D)
			res := cfg.Run(skybench.Hybrid, m, cfg.MaxThreads, nil)
			fmt.Fprintf(w, "%-16s %10d %6d %12d %8.4f\n",
				dist, n, cfg.D, res.Stats.SkylineSize, float64(res.Stats.SkylineSize)/float64(n))
		}
	}
	for _, dist := range dataset.AllDistributions {
		for _, d := range cfg.Dims {
			m := cfg.gen(dist, cfg.N, d)
			res := cfg.Run(skybench.Hybrid, m, cfg.MaxThreads, nil)
			fmt.Fprintf(w, "%-16s %10d %6d %12d %8.4f\n",
				dist, cfg.N, d, res.Stats.SkylineSize, float64(res.Stats.SkylineSize)/float64(cfg.N))
		}
	}
}

// Fig5 reports runtimes of the five algorithms as dimensionality grows
// (n fixed), per distribution. DT counts are included because on this
// host wall-clock cannot express thread scaling (see DESIGN.md §5).
func (cfg Config) Fig5(w io.Writer) {
	header(w, "Figure 5: state-of-the-art performance w.r.t. d",
		fmt.Sprintf("n=%d, parallel algorithms at t=%d, BSkyTree sequential", cfg.N, cfg.MaxThreads))
	cfg.varyDimTable(w, fig56Algos)
}

// Fig6 reports runtimes of the five algorithms as cardinality grows
// (d fixed), per distribution.
func (cfg Config) Fig6(w io.Writer) {
	header(w, "Figure 6: state-of-the-art performance w.r.t. n",
		fmt.Sprintf("d=%d, parallel algorithms at t=%d, BSkyTree sequential", cfg.D, cfg.MaxThreads))
	cfg.varyCardTable(w, fig56Algos)
}

func (cfg Config) varyDimTable(w io.Writer, algos []skybench.Algorithm) {
	fmt.Fprintf(w, "%-16s %4s", "distribution", "d")
	for _, a := range algos {
		fmt.Fprintf(w, " %12s %14s", a.String()+"(ms)", a.String()+"(DTs)")
	}
	fmt.Fprintln(w)
	for _, dist := range dataset.AllDistributions {
		for _, d := range cfg.Dims {
			m := cfg.gen(dist, cfg.N, d)
			fmt.Fprintf(w, "%-16s %4d", dist, d)
			for _, a := range algos {
				threads := cfg.MaxThreads
				if a == skybench.BSkyTree {
					threads = 1
				}
				r := cfg.Run(a, m, threads, nil)
				fmt.Fprintf(w, " %12s %14d", ms(r.Elapsed), r.Stats.DominanceTests)
			}
			fmt.Fprintln(w)
		}
	}
}

func (cfg Config) varyCardTable(w io.Writer, algos []skybench.Algorithm) {
	fmt.Fprintf(w, "%-16s %10s", "distribution", "n")
	for _, a := range algos {
		fmt.Fprintf(w, " %12s %14s", a.String()+"(ms)", a.String()+"(DTs)")
	}
	fmt.Fprintln(w)
	for _, dist := range dataset.AllDistributions {
		for _, n := range cfg.NSweep {
			m := cfg.gen(dist, n, cfg.D)
			fmt.Fprintf(w, "%-16s %10d", dist, n)
			for _, a := range algos {
				threads := cfg.MaxThreads
				if a == skybench.BSkyTree {
					threads = 1
				}
				r := cfg.Run(a, m, threads, nil)
				fmt.Fprintf(w, " %12s %14d", ms(r.Elapsed), r.Stats.DominanceTests)
			}
			fmt.Fprintln(w)
		}
	}
}

// alphaSweepQFlow is the α grid of Figure 7 (2^7 … 2^16).
var alphaSweepQFlow = []int{1 << 7, 1 << 10, 1 << 13, 1 << 16}

// Fig7 decomposes Q-Flow runtime by phase across the α sweep and prints
// PSkyline for comparison, per distribution.
func (cfg Config) Fig7(w io.Writer) {
	header(w, "Figure 7: effect of α in Q-Flow (phase decomposition)",
		fmt.Sprintf("n=%d d=%d t=%d; PSkyline shown for comparison", cfg.N, cfg.D, cfg.MaxThreads))
	fmt.Fprintf(w, "%-16s %-10s %10s %10s %10s %10s %10s\n",
		"distribution", "config", "init(ms)", "phase1", "phase2", "other", "total")
	for _, dist := range dataset.AllDistributions {
		m := cfg.gen(dist, cfg.N, cfg.D)
		for _, alpha := range alphaSweepQFlow {
			r := cfg.Run(skybench.QFlow, m, cfg.MaxThreads, func(q *skybench.Query) { q.Alpha = alpha })
			tm := r.Stats.Timings
			other := tm.Compress + tm.Other
			fmt.Fprintf(w, "%-16s alpha=2^%-2d %10s %10s %10s %10s %10s\n",
				dist, log2(alpha), ms(tm.Init), ms(tm.PhaseOne), ms(tm.PhaseTwo), ms(other), ms(r.Elapsed))
		}
		r := cfg.Run(skybench.PSkyline, m, cfg.MaxThreads, nil)
		tm := r.Stats.Timings
		fmt.Fprintf(w, "%-16s %-10s %10s %10s %10s %10s %10s\n",
			dist, "pskyline", ms(0), ms(tm.PhaseOne), ms(tm.PhaseTwo), ms(0), ms(r.Elapsed))
	}
}

// Fig8 decomposes Hybrid runtime by phase across the α sweep.
func (cfg Config) Fig8(w io.Writer) {
	header(w, "Figure 8: effect of α on Hybrid (phase decomposition)",
		fmt.Sprintf("n=%d d=%d t=%d", cfg.N, cfg.D, cfg.MaxThreads))
	fmt.Fprintf(w, "%-16s %-10s %9s %9s %9s %9s %9s %9s %9s %9s\n",
		"distribution", "config", "init", "prefilt", "pivot", "phase1", "phase2", "compress", "other", "total")
	for _, dist := range dataset.AllDistributions {
		m := cfg.gen(dist, cfg.N, cfg.D)
		for _, alpha := range alphaSweepQFlow {
			r := cfg.Run(skybench.Hybrid, m, cfg.MaxThreads, func(q *skybench.Query) { q.Alpha = alpha })
			tm := r.Stats.Timings
			fmt.Fprintf(w, "%-16s alpha=2^%-2d %9s %9s %9s %9s %9s %9s %9s %9s\n",
				dist, log2(alpha), ms(tm.Init), ms(tm.Prefilter), ms(tm.Pivot),
				ms(tm.PhaseOne), ms(tm.PhaseTwo), ms(tm.Compress), ms(tm.Other), ms(r.Elapsed))
		}
	}
}

// pivotAlphaSweep is the α grid of Figure 9 (16 … 8192).
var pivotAlphaSweep = []int{16, 128, 1024, 8192}

// Fig9 compares Hybrid's five pivot-selection strategies across α.
func (cfg Config) Fig9(w io.Writer) {
	header(w, "Figure 9: effect of pivot selection in Hybrid",
		fmt.Sprintf("n=%d d=%d t=%d", cfg.N, cfg.D, cfg.MaxThreads))
	pivots := []skybench.PivotStrategy{
		skybench.PivotBalanced, skybench.PivotVolume, skybench.PivotManhattan,
		skybench.PivotRandom, skybench.PivotMedian,
	}
	fmt.Fprintf(w, "%-16s %8s", "distribution", "alpha")
	for _, p := range pivots {
		fmt.Fprintf(w, " %12s", p.String()+"(ms)")
	}
	fmt.Fprintln(w)
	for _, dist := range dataset.AllDistributions {
		m := cfg.gen(dist, cfg.N, cfg.D)
		for _, alpha := range pivotAlphaSweep {
			fmt.Fprintf(w, "%-16s %8d", dist, alpha)
			for _, p := range pivots {
				r := cfg.Run(skybench.Hybrid, m, cfg.MaxThreads, func(q *skybench.Query) {
					q.Alpha = alpha
					q.Pivot = p
					q.Seed = cfg.Seed
				})
				fmt.Fprintf(w, " %12s", ms(r.Elapsed))
			}
			fmt.Fprintln(w)
		}
	}
}

// Fig10 reports Q-Flow vs PSkyline thread scaling across dimensionality.
func (cfg Config) Fig10(w io.Writer) {
	header(w, "Figure 10: Q-Flow versus PSkyline w.r.t. d (thread sweep)",
		fmt.Sprintf("n=%d", cfg.N))
	cfg.threadScalingDim(w, skybench.QFlow, skybench.PSkyline)
}

// Fig11 reports Q-Flow vs PSkyline thread scaling across cardinality.
func (cfg Config) Fig11(w io.Writer) {
	header(w, "Figure 11: Q-Flow versus PSkyline w.r.t. n (thread sweep)",
		fmt.Sprintf("d=%d", cfg.D))
	cfg.threadScalingCard(w, skybench.QFlow, skybench.PSkyline)
}

// Fig12 reports Hybrid vs PBSkyTree thread scaling across dimensionality.
func (cfg Config) Fig12(w io.Writer) {
	header(w, "Figure 12: parallel scalability in Hybrid w.r.t. d",
		fmt.Sprintf("n=%d, versus PBSkyTree", cfg.N))
	cfg.threadScalingDim(w, skybench.Hybrid, skybench.PBSkyTree)
}

// Fig13 reports Hybrid vs PBSkyTree thread scaling across cardinality.
func (cfg Config) Fig13(w io.Writer) {
	header(w, "Figure 13: parallel scalability in Hybrid w.r.t. n",
		fmt.Sprintf("d=%d, versus PBSkyTree", cfg.D))
	cfg.threadScalingCard(w, skybench.Hybrid, skybench.PBSkyTree)
}

func (cfg Config) threadScalingDim(w io.Writer, a, b skybench.Algorithm) {
	fmt.Fprintf(w, "%-16s %4s %4s %14s %14s\n", "distribution", "d", "t", a.String()+"(ms)", b.String()+"(ms)")
	for _, dist := range dataset.AllDistributions {
		for _, d := range cfg.Dims {
			m := cfg.gen(dist, cfg.N, d)
			for _, t := range cfg.Threads {
				ra := cfg.Run(a, m, t, nil)
				rb := cfg.Run(b, m, t, nil)
				fmt.Fprintf(w, "%-16s %4d %4d %14s %14s\n", dist, d, t, ms(ra.Elapsed), ms(rb.Elapsed))
			}
		}
	}
}

func (cfg Config) threadScalingCard(w io.Writer, a, b skybench.Algorithm) {
	fmt.Fprintf(w, "%-16s %10s %4s %14s %14s\n", "distribution", "n", "t", a.String()+"(ms)", b.String()+"(ms)")
	for _, dist := range dataset.AllDistributions {
		for _, n := range cfg.NSweep {
			m := cfg.gen(dist, n, cfg.D)
			for _, t := range cfg.Threads {
				ra := cfg.Run(a, m, t, nil)
				rb := cfg.Run(b, m, t, nil)
				fmt.Fprintf(w, "%-16s %10d %4d %14s %14s\n", dist, n, t, ms(ra.Elapsed), ms(rb.Elapsed))
			}
		}
	}
}

func log2(x int) int {
	n := 0
	for x > 1 {
		x >>= 1
		n++
	}
	return n
}
