package bench

import (
	"fmt"
	"io"

	"skybench"

	"skybench/internal/dataset"
	"skybench/internal/point"
)

// Table1 prints the real-dataset specifications: paper-published values
// next to the measured properties of this repository's stand-ins.
func (cfg Config) Table1(w io.Writer) {
	header(w, "Table I: specifications of real datasets",
		fmt.Sprintf("synthetic stand-ins at scale %.2f (see DESIGN.md §5)", cfg.RealScale))
	fmt.Fprintf(w, "%-10s %10s %4s %14s %14s %12s %12s\n",
		"dataset", "n", "d", "|SKY| paper", "|SKY| ours", "frac paper", "frac ours")
	for _, r := range dataset.AllRealDatasets {
		spec := r.Spec()
		m := r.Load(cfg.RealScale)
		res := cfg.Run(skybench.Hybrid, m, cfg.MaxThreads, nil)
		frac := float64(res.Stats.SkylineSize) / float64(m.N())
		fmt.Fprintf(w, "%-10s %10d %4d %14d %14d %12.4f %12.4f\n",
			spec.Name, m.N(), spec.Dimensionality, spec.SkylineSize,
			res.Stats.SkylineSize, spec.SkylineFrac, frac)
	}
}

// Table2 reports runtimes on the real datasets at full thread count,
// with each parallel algorithm's speedup over its own single-threaded
// run (the paper's Table II).
func (cfg Config) Table2(w io.Writer) {
	header(w, "Table II: performance on real data",
		fmt.Sprintf("stand-ins at scale %.2f; speedup is t=%d over t=1", cfg.RealScale, cfg.MaxThreads))
	algos := []skybench.Algorithm{
		skybench.BSkyTree, skybench.PBSkyTree, skybench.PSkyline,
		skybench.QFlow, skybench.Hybrid,
	}
	fmt.Fprintf(w, "%-12s", "algorithm")
	for _, r := range dataset.AllRealDatasets {
		name := r.Spec().Name
		fmt.Fprintf(w, " %12s %9s", name+"(ms)", "speedup")
	}
	fmt.Fprintln(w)
	mats := make([]point.Matrix, len(dataset.AllRealDatasets))
	for i, r := range dataset.AllRealDatasets {
		mats[i] = r.Load(cfg.RealScale)
	}
	for _, a := range algos {
		fmt.Fprintf(w, "%-12s", a)
		for _, m := range mats {
			multi := cfg.Run(a, m, cfg.MaxThreads, nil)
			if a == skybench.BSkyTree {
				fmt.Fprintf(w, " %12s %9s", ms(multi.Elapsed), "-")
				continue
			}
			single := cfg.Run(a, m, 1, nil)
			speedup := float64(single.Elapsed) / float64(multi.Elapsed)
			fmt.Fprintf(w, " %12s %8.1fx", ms(multi.Elapsed), speedup)
		}
		fmt.Fprintln(w)
	}
}

// Table3 reports the parallelization overhead of PBSkyTree: the runtime
// of single-threaded PBSkyTree relative to natively sequential BSkyTree
// across the cardinality sweep (the paper's Table III).
func (cfg Config) Table3(w io.Writer) {
	header(w, "Table III: BSkyTree relative to PBSkyTree (t=1)",
		fmt.Sprintf("d=%d; ratio > 1 means the Appendix-A batching costs time at t=1", cfg.D))
	fmt.Fprintf(w, "%-16s %10s %14s %16s %8s\n",
		"distribution", "n", "bskytree(ms)", "pbskytree1(ms)", "ratio")
	for _, dist := range dataset.AllDistributions {
		for _, n := range cfg.NSweep {
			m := cfg.gen(dist, n, cfg.D)
			seq := cfg.Run(skybench.BSkyTree, m, 1, nil)
			par1 := cfg.Run(skybench.PBSkyTree, m, 1, nil)
			ratio := float64(par1.Elapsed) / float64(seq.Elapsed)
			fmt.Fprintf(w, "%-16s %10d %14s %16s %7.1fx\n",
				dist, n, ms(seq.Elapsed), ms(par1.Elapsed), ratio)
		}
	}
}

// Ablations quantifies each Hybrid design component by disabling it:
// the M(S) index, level-2 re-partitioning, and the pre-filter.
func (cfg Config) Ablations(w io.Writer) {
	header(w, "Ablation study: Hybrid design components",
		fmt.Sprintf("n=%d d=%d t=%d; DTs are the machine-independent cost", cfg.N, cfg.D, cfg.MaxThreads))
	variants := []struct {
		name string
		ab   skybench.Ablation
	}{
		{"full", skybench.Ablation{}},
		{"no-ms", skybench.Ablation{NoMS: true}},
		{"no-level2", skybench.Ablation{NoLevel2: true}},
		{"no-prefilter", skybench.Ablation{NoPrefilter: true}},
		{"no-p2split", skybench.Ablation{NoPhase2Split: true}},
	}
	fmt.Fprintf(w, "%-16s %-14s %12s %16s %12s\n",
		"distribution", "variant", "time(ms)", "DTs", "|skyline|")
	for _, dist := range dataset.AllDistributions {
		m := cfg.gen(dist, cfg.N, cfg.D)
		for _, v := range variants {
			r := cfg.Run(skybench.Hybrid, m, cfg.MaxThreads, func(q *skybench.Query) { q.Ablation = v.ab })
			fmt.Fprintf(w, "%-16s %-14s %12s %16d %12d\n",
				dist, v.name, ms(r.Elapsed), r.Stats.DominanceTests, r.Stats.SkylineSize)
		}
	}
}

// Multicore compares all six multicore algorithms in the suite — the
// paper's Hybrid/Q-Flow/PBSkyTree/PSkyline plus the related-work PSFS
// and APSkyline — on the three distributions. This extends the paper's
// evaluation, which omits PSFS and APSkyline from its figures.
func (cfg Config) Multicore(w io.Writer) {
	header(w, "Extension: all multicore algorithms",
		fmt.Sprintf("n=%d d=%d t=%d", cfg.N, cfg.D, cfg.MaxThreads))
	algos := []skybench.Algorithm{
		skybench.Hybrid, skybench.QFlow, skybench.PBSkyTree,
		skybench.PSkyline, skybench.PSFS, skybench.APSkyline,
	}
	fmt.Fprintf(w, "%-16s %-12s %12s %16s %12s\n",
		"distribution", "algorithm", "time(ms)", "DTs", "|skyline|")
	for _, dist := range dataset.AllDistributions {
		m := cfg.gen(dist, cfg.N, cfg.D)
		for _, a := range algos {
			r := cfg.Run(a, m, cfg.MaxThreads, nil)
			fmt.Fprintf(w, "%-16s %-12s %12s %16d %12d\n",
				dist, a, ms(r.Elapsed), r.Stats.DominanceTests, r.Stats.SkylineSize)
		}
	}
}

// Experiments maps experiment names to their implementations, in paper
// order. cmd/experiments iterates this registry.
func Experiments() []struct {
	Name string
	Desc string
	Run  func(Config, io.Writer)
} {
	return []struct {
		Name string
		Desc string
		Run  func(Config, io.Writer)
	}{
		{"fig4", "skyline sizes in synthetic data", Config.Fig4},
		{"table1", "real dataset specifications", Config.Table1},
		{"fig5", "runtime vs dimensionality, 5 algorithms", Config.Fig5},
		{"fig6", "runtime vs cardinality, 5 algorithms", Config.Fig6},
		{"table2", "performance on real data with speedups", Config.Table2},
		{"fig7", "effect of alpha on Q-Flow, phase decomposition", Config.Fig7},
		{"fig8", "effect of alpha on Hybrid, phase decomposition", Config.Fig8},
		{"fig9", "pivot selection strategies", Config.Fig9},
		{"fig10", "Q-Flow vs PSkyline thread scaling over d", Config.Fig10},
		{"fig11", "Q-Flow vs PSkyline thread scaling over n", Config.Fig11},
		{"fig12", "Hybrid vs PBSkyTree thread scaling over d", Config.Fig12},
		{"fig13", "Hybrid vs PBSkyTree thread scaling over n", Config.Fig13},
		{"table3", "PBSkyTree single-thread overhead", Config.Table3},
		{"ablations", "Hybrid component ablations", Config.Ablations},
		{"multicore", "all six multicore algorithms (extension)", Config.Multicore},
		{"stream", "incremental maintenance vs recompute (extension)", Config.StreamMaintenance},
		{"skyband", "k-skyband cost curve over k (extension)", Config.Skyband},
		{"shard", "sharded serving fan-out + merge vs single partition (extension)", Config.Shard},
		{"planner", "adaptive planner (Algorithm Auto) vs fixed arms (extension)", Config.Planner},
	}
}
