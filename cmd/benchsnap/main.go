// Command benchsnap measures the hot-path algorithms on a fixed workload
// grid and writes a BENCH_<date>.json snapshot, so the repository records
// a performance trajectory PR over PR. Commit the emitted file; compare
// two snapshots by eye or with jq.
//
// Usage:
//
//	benchsnap                       # default grid, BENCH_<date>.json
//	benchsnap -out BENCH_x.json -reps 5 -note "after kernel rework"
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"skybench"

	"skybench/internal/dataset"
)

// entry is one measured cell of the snapshot grid.
type entry struct {
	Algorithm string  `json:"algorithm"`
	Dist      string  `json:"dist"`
	N         int     `json:"n"`
	D         int     `json:"d"`
	K         int     `json:"skyband_k,omitempty"` // ≥ 2 marks a skyband cell
	Shards    int     `json:"shards,omitempty"`    // ≥ 1 marks a store-served sharded cell
	Threads   int     `json:"threads"`
	Reps      int     `json:"reps"`
	BestMs    float64 `json:"best_ms"`
	AvgMs     float64 `json:"avg_ms"`
	DTs       uint64  `json:"dominance_tests"`
	Skyline   int     `json:"skyline_size"`
	// Chosen records the plan an Algorithm: Auto cell converged to
	// (e.g. "hybrid/1 no_prefilter"); empty for fixed-algorithm cells.
	Chosen string `json:"chosen_plan,omitempty"`
}

type snapshot struct {
	Date       string  `json:"date"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Note       string  `json:"note,omitempty"`
	Entries    []entry `json:"entries"`
}

func main() {
	var (
		out     = flag.String("out", "", "output path (default BENCH_<date>.json)")
		n       = flag.Int("n", 100000, "cardinality of the default workload")
		d       = flag.Int("d", 8, "dimensionality of the default workload")
		t       = flag.Int("t", 8, "threads for the parallel algorithms")
		reps    = flag.Int("reps", 3, "repetitions per cell (best and average reported)")
		seed    = flag.Int64("seed", 42, "dataset generator seed")
		note    = flag.String("note", "", "freeform note stored in the snapshot")
		full    = flag.Bool("full", false, "also measure the parallel baselines (slower)")
		kList   = flag.String("k", "4,16", "comma-separated skyband k values also measured for hybrid/qflow (empty = none)")
		pList   = flag.String("shards", "1,2,4", "comma-separated shard counts measured through a Store collection into BENCH_<date>_shard.json (empty = skip)")
		planner = flag.Bool("planner", true, "measure the adaptive planner (Algorithm Auto) against its fixed arms into BENCH_<date>_planner.json")
	)
	flag.Parse()

	algos := []skybench.Algorithm{skybench.Hybrid, skybench.QFlow}
	if *full {
		algos = append(algos, skybench.PSkyline, skybench.PBSkyTree, skybench.PSFS, skybench.APSkyline)
	}

	snap := snapshot{
		Date:       time.Now().UTC().Format("2006-01-02T15:04:05Z"),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Note:       *note,
	}

	var ks []int
	if *kList != "" {
		for _, part := range strings.Split(*kList, ",") {
			k, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || k < 2 {
				fmt.Fprintf(os.Stderr, "benchsnap: -k entries must be integers >= 2, got %q\n", part)
				os.Exit(1)
			}
			ks = append(ks, k)
		}
	}
	var shardPs []int
	if *pList != "" {
		for _, part := range strings.Split(*pList, ",") {
			p, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || p < 1 {
				fmt.Fprintf(os.Stderr, "benchsnap: -shards entries must be integers >= 1, got %q\n", part)
				os.Exit(1)
			}
			shardPs = append(shardPs, p)
		}
	}

	eng := skybench.NewEngine(*t)
	defer eng.Close()
	for _, dist := range dataset.AllDistributions {
		m := dataset.Generate(dist, *n, *d, *seed)
		ds, err := skybench.DatasetFromFlat(m.Flat(), m.N(), m.D())
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchsnap:", err)
			os.Exit(1)
		}
		for _, alg := range algos {
			e := entry{
				Algorithm: alg.String(), Dist: dist.String(),
				N: *n, D: *d, Threads: *t, Reps: *reps,
			}
			var total time.Duration
			best := time.Duration(0)
			for r := 0; r < *reps; r++ {
				res, err := eng.Run(context.Background(), ds,
					skybench.Query{Algorithm: alg, ReuseIndices: true})
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchsnap: %s/%s: %v\n", alg, dist, err)
					os.Exit(1)
				}
				el := res.Stats.Elapsed
				total += el
				if best == 0 || el < best {
					best = el
				}
				e.DTs = res.Stats.DominanceTests
				e.Skyline = res.Stats.SkylineSize
			}
			e.BestMs = float64(best.Nanoseconds()) / 1e6
			e.AvgMs = float64(total.Nanoseconds()) / float64(*reps) / 1e6
			snap.Entries = append(snap.Entries, e)
			fmt.Printf("%-10s %-14s n=%d d=%d t=%d  best=%.2fms avg=%.2fms |SKY|=%d\n",
				e.Algorithm, e.Dist, e.N, e.D, e.Threads, e.BestMs, e.AvgMs, e.Skyline)
		}

		// Skyband cost curve: the same workload through the k-skyband
		// query path (Hybrid and QFlow only — the baselines don't count
		// dominators).
		for _, alg := range []skybench.Algorithm{skybench.Hybrid, skybench.QFlow} {
			for _, k := range ks {
				e := entry{
					Algorithm: alg.String(), Dist: dist.String(),
					N: *n, D: *d, K: k, Threads: *t, Reps: *reps,
				}
				q := skybench.Query{Algorithm: alg, SkybandK: k, ReuseIndices: true}
				var total time.Duration
				best := time.Duration(0)
				for r := 0; r < *reps; r++ {
					res, err := eng.Run(context.Background(), ds, q)
					if err != nil {
						fmt.Fprintf(os.Stderr, "benchsnap: %s/%s k=%d: %v\n", alg, dist, k, err)
						os.Exit(1)
					}
					el := res.Stats.Elapsed
					total += el
					if best == 0 || el < best {
						best = el
					}
					e.DTs = res.Stats.DominanceTests
					e.Skyline = res.Stats.SkylineSize
				}
				e.BestMs = float64(best.Nanoseconds()) / 1e6
				e.AvgMs = float64(total.Nanoseconds()) / float64(*reps) / 1e6
				snap.Entries = append(snap.Entries, e)
				fmt.Printf("%-10s %-14s n=%d d=%d k=%d t=%d  best=%.2fms avg=%.2fms |BAND|=%d\n",
					e.Algorithm, e.Dist, e.N, e.D, e.K, e.Threads, e.BestMs, e.AvgMs, e.Skyline)
			}
		}
	}

	path := *out
	if path == "" {
		path = fmt.Sprintf("BENCH_%s.json", time.Now().UTC().Format("2006-01-02"))
	}
	writeSnap(path, &snap)

	// Adaptive-planner rows: Algorithm Auto on a sharded collection,
	// measured after a fixed warm-up spends the planner's explore budget
	// and fills its cost history, next to the four fixed arms it chooses
	// between. Recorded as a separate BENCH_<date>_planner.json; the
	// chosen_plan column pins what Auto converged to so regressions in
	// the decision itself (not just its latency) show up in the diff.
	if *planner {
		const plannerShards = 4
		const plannerWarmup = 12
		planSnap := snapshot{
			Date: snap.Date, GoVersion: snap.GoVersion, GOOS: snap.GOOS,
			GOARCH: snap.GOARCH, NumCPU: snap.NumCPU, GOMAXPROCS: snap.GOMAXPROCS,
			Note: *note,
		}
		pst := skybench.NewStore(*t)
		for _, dist := range dataset.AllDistributions {
			m := dataset.Generate(dist, *n, *d, *seed)
			ds, err := skybench.DatasetFromFlat(m.Flat(), m.N(), m.D())
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchsnap:", err)
				os.Exit(1)
			}
			type armSpec struct {
				alg skybench.Algorithm
				p   int
			}
			for _, a := range []armSpec{
				{skybench.Hybrid, 1}, {skybench.Hybrid, plannerShards},
				{skybench.QFlow, 1}, {skybench.QFlow, plannerShards},
			} {
				col, err := pst.Attach(fmt.Sprintf("plan-%s-%s-p%d", dist, a.alg, a.p), ds,
					skybench.CollectionOptions{Shards: a.p, CacheCapacity: -1})
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchsnap:", err)
					os.Exit(1)
				}
				e := entry{
					Algorithm: a.alg.String(), Dist: dist.String(),
					N: *n, D: *d, Shards: a.p, Threads: *t, Reps: *reps,
				}
				best, avg, last := measureStore(col, skybench.Query{Algorithm: a.alg}, *reps)
				e.BestMs, e.AvgMs = msFloat(best), msFloat(avg)
				e.DTs, e.Skyline = last.Stats.DominanceTests, len(last.Indices)
				planSnap.Entries = append(planSnap.Entries, e)
				fmt.Printf("%-10s %-14s n=%d d=%d shards=%d t=%d  best=%.2fms avg=%.2fms |SKY|=%d\n",
					e.Algorithm, e.Dist, e.N, e.D, e.Shards, e.Threads, e.BestMs, e.AvgMs, e.Skyline)
			}

			col, err := pst.Attach("plan-"+dist.String()+"-auto", ds,
				skybench.CollectionOptions{Shards: plannerShards, CacheCapacity: -1})
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchsnap:", err)
				os.Exit(1)
			}
			q := skybench.Query{Algorithm: skybench.Auto}
			for i := 0; i < plannerWarmup; i++ {
				if _, err := col.Run(context.Background(), q); err != nil {
					fmt.Fprintf(os.Stderr, "benchsnap: auto warmup %s: %v\n", dist, err)
					os.Exit(1)
				}
			}
			e := entry{
				Algorithm: "auto", Dist: dist.String(),
				N: *n, D: *d, Shards: plannerShards, Threads: *t, Reps: *reps,
			}
			best, avg, last := measureStore(col, q, *reps)
			e.BestMs, e.AvgMs = msFloat(best), msFloat(avg)
			e.DTs, e.Skyline = last.Stats.DominanceTests, len(last.Indices)
			if last.Plan != nil {
				e.Chosen = fmt.Sprintf("%s/%d", last.Plan.Algorithm, last.Plan.Shards)
				if last.Plan.NoPrefilter {
					e.Chosen += " no_prefilter"
				}
			}
			planSnap.Entries = append(planSnap.Entries, e)
			fmt.Printf("%-10s %-14s n=%d d=%d shards=%d t=%d  best=%.2fms avg=%.2fms |SKY|=%d  chose %s\n",
				e.Algorithm, e.Dist, e.N, e.D, e.Shards, e.Threads, e.BestMs, e.AvgMs, e.Skyline, e.Chosen)
		}
		pst.Close()
		writeSnap(strings.TrimSuffix(path, ".json")+"_planner.json", &planSnap)
	}

	// Sharded serving rows: the same workloads through a Store
	// collection (caching disabled so every rep measures real fan-out +
	// merge work), recorded as a separate BENCH_<date>_shard.json so the
	// sharded trajectory is comparable PR over PR on its own.
	if len(shardPs) == 0 {
		return
	}
	shardSnap := snapshot{
		Date: snap.Date, GoVersion: snap.GoVersion, GOOS: snap.GOOS,
		GOARCH: snap.GOARCH, NumCPU: snap.NumCPU, GOMAXPROCS: snap.GOMAXPROCS,
		Note: *note,
	}
	st := skybench.NewStore(*t)
	defer st.Close()
	cctx := context.Background()
	for _, dist := range dataset.AllDistributions {
		m := dataset.Generate(dist, *n, *d, *seed)
		ds, err := skybench.DatasetFromFlat(m.Flat(), m.N(), m.D())
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchsnap:", err)
			os.Exit(1)
		}
		for _, alg := range []skybench.Algorithm{skybench.Hybrid, skybench.QFlow} {
			for _, p := range shardPs {
				col, err := st.Attach(fmt.Sprintf("%s-%s-p%d", dist, alg, p), ds,
					skybench.CollectionOptions{Shards: p, CacheCapacity: -1})
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchsnap:", err)
					os.Exit(1)
				}
				e := entry{
					Algorithm: alg.String(), Dist: dist.String(),
					N: *n, D: *d, Shards: p, Threads: *t, Reps: *reps,
				}
				q := skybench.Query{Algorithm: alg}
				var total time.Duration
				best := time.Duration(0)
				for r := 0; r < *reps; r++ {
					start := time.Now()
					res, err := col.Run(cctx, q)
					if err != nil {
						fmt.Fprintf(os.Stderr, "benchsnap: %s/%s shards=%d: %v\n", alg, dist, p, err)
						os.Exit(1)
					}
					el := time.Since(start)
					total += el
					if best == 0 || el < best {
						best = el
					}
					e.DTs = res.Stats.DominanceTests
					e.Skyline = len(res.Indices)
				}
				e.BestMs = float64(best.Nanoseconds()) / 1e6
				e.AvgMs = float64(total.Nanoseconds()) / float64(*reps) / 1e6
				shardSnap.Entries = append(shardSnap.Entries, e)
				fmt.Printf("%-10s %-14s n=%d d=%d shards=%d t=%d  best=%.2fms avg=%.2fms |SKY|=%d\n",
					e.Algorithm, e.Dist, e.N, e.D, e.Shards, e.Threads, e.BestMs, e.AvgMs, e.Skyline)
			}
		}
	}
	shardPath := strings.TrimSuffix(path, ".json") + "_shard.json"
	writeSnap(shardPath, &shardSnap)
}

// measureStore times reps runs of q through col by wall clock (so an
// Algorithm: Auto cell is charged for its planning overhead too) and
// returns the best and average durations with the final result.
func measureStore(col *skybench.Collection, q skybench.Query, reps int) (best, avg time.Duration, last *skybench.QueryResult) {
	var total time.Duration
	for r := 0; r < reps; r++ {
		start := time.Now()
		res, err := col.Run(context.Background(), q)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchsnap: %s: %v\n", q.Algorithm, err)
			os.Exit(1)
		}
		el := time.Since(start)
		total += el
		if best == 0 || el < best {
			best = el
		}
		last = res
	}
	return best, total / time.Duration(reps), last
}

// msFloat converts a duration to fractional milliseconds.
func msFloat(d time.Duration) float64 {
	return float64(d.Nanoseconds()) / 1e6
}

// writeSnap marshals a snapshot to disk.
func writeSnap(path string, snap *snapshot) {
	blob, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap:", err)
		os.Exit(1)
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap:", err)
		os.Exit(1)
	}
	fmt.Println("wrote", path)
}
