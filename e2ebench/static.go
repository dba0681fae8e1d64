package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"skybench"
	"skybench/serve"
)

// writeCSV writes rows as a headerless CSV in shortest round-trip form,
// so the server parses back exactly the generated values.
func writeCSV(path string, rows [][]float64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	var buf []byte
	for _, row := range rows {
		buf = buf[:0]
		for j, v := range row {
			if j > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
		}
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// staticInputs is a generated static collection on disk. The points
// stay in memory only as the flat Dataset: the process being measured
// should not carry one heap object per generated row for its garbage
// collector to scan.
type staticInputs struct {
	dir string
	csv string
	ds  *skybench.Dataset
}

func (r *run) genStatic(dist string, n, d int) (*staticInputs, error) {
	rows, err := skybench.GenerateDataset(dist, n, d, r.cfg.seed)
	if err != nil {
		return nil, err
	}
	ds, err := skybench.NewDataset(rows)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(r.cfg.out, "run-")
	if err != nil {
		return nil, err
	}
	in := &staticInputs{dir: dir, csv: filepath.Join(dir, "points.csv"), ds: ds}
	if err := writeCSV(in.csv, rows); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return in, nil
}

// attachStatic starts a server and attaches the CSV over the wire.
func attachStatic(in *staticInputs, name string, shards, conns int, timed bool) (*env, error) {
	e, err := startEnv(conns, timed)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	if _, err := e.cl.Attach(ctx, name, &serve.AttachRequest{Static: &serve.StaticSpec{Path: in.csv}, Shards: shards}); err != nil {
		e.close()
		return nil, fmt.Errorf("attach: %w", err)
	}
	return e, nil
}

// shadowStatic attaches the same data with the same options to an
// in-process Store, for the traced run's replay.
func shadowStatic(ds *skybench.Dataset, shards int) (*skybench.Store, *skybench.Collection, error) {
	st := skybench.NewStore(0)
	col, err := st.Attach("shadow", ds, skybench.CollectionOptions{Shards: shards})
	if err != nil {
		st.Close()
		return nil, nil, err
	}
	return st, col, nil
}

// antiMix returns the preference compositions of one cycle of slots
// shapes over d dimensions — how many dimensions each ignores and how
// many it maximizes — in the proportions that drawing every dimension
// independently (min 50%, max 40%, ignore 10%, at most 2 ignored) gives
// them, by largest remainder. A fixed mix keeps the cost of a window
// the same from seed to seed; the seed picks which dimensions.
func antiMix(d, slots int) [][2]int {
	type comp struct {
		c    [2]int
		want float64
		got  int
	}
	var comps []*comp
	var total float64
	for ign := 0; ign <= 2; ign++ {
		for mx := 0; mx+ign <= d; mx++ {
			p := multinomial(d, d-ign-mx, mx, ign) * math.Pow(0.5, float64(d-ign-mx)) * math.Pow(0.4, float64(mx)) * math.Pow(0.1, float64(ign))
			comps = append(comps, &comp{c: [2]int{ign, mx}, want: p})
			total += p
		}
	}
	left := slots
	for _, c := range comps {
		c.want *= float64(slots) / total
		c.got = int(c.want)
		left -= c.got
	}
	sort.SliceStable(comps, func(i, j int) bool {
		return comps[i].want-float64(comps[i].got) > comps[j].want-float64(comps[j].got)
	})
	for _, c := range comps[:left] {
		c.got++
	}
	var mix [][2]int
	for _, c := range comps {
		for ; c.got > 0; c.got-- {
			mix = append(mix, c.c)
		}
	}
	return mix
}

func multinomial(n int, parts ...int) float64 {
	r := 1.0
	for i := 2; i <= n; i++ {
		r *= float64(i)
	}
	for _, p := range parts {
		for i := 2; i <= p; i++ {
			r /= float64(i)
		}
	}
	return r
}

// antiRequests builds the anti-sharded request sequence: cycles of
// antiCycle requests, SkybandK alternating 1 and 4, each band width
// taking the antiMix compositions once per cycle in seeded order, and
// every shape distinct. Each (composition, k) draws its preference
// vectors from a seeded shuffle of all vectors of that composition;
// when one runs out, the next composition of the cycle with vectors
// left stands in.
func antiRequests(rng *rand.Rand, d, n int) []serve.QueryRequest {
	mix := antiMix(d, antiCycle/2)
	pools := map[int]map[[2]int][][]string{1: {}, 4: {}}
	for code := 0; code < int(math.Pow(3, float64(d))); code++ {
		prefs := make([]string, d)
		var c [2]int
		for j, x := 0, code; j < d; j, x = j+1, x/3 {
			prefs[j] = [3]string{"min", "max", "ignore"}[x%3]
			switch x % 3 {
			case 1:
				c[1]++
			case 2:
				c[0]++
			}
		}
		if c[0] <= 2 {
			for k := range pools {
				pools[k][c] = append(pools[k][c], prefs)
			}
		}
	}
	for _, k := range []int{1, 4} {
		for _, comp := range mix {
			p := pools[k][comp]
			rng.Shuffle(len(p), func(a, b int) { p[a], p[b] = p[b], p[a] })
		}
	}
	order := map[int][][2]int{1: append([][2]int(nil), mix...), 4: append([][2]int(nil), mix...)}
	reqs := make([]serve.QueryRequest, 0, n)
	for len(reqs) < n {
		for _, k := range []int{1, 4} {
			o := order[k]
			rng.Shuffle(len(o), func(a, b int) { o[a], o[b] = o[b], o[a] })
		}
		for i := 0; i < antiCycle; i++ {
			k, o := 1+3*(i%2), order[1+3*(i%2)]
			pool := pools[k]
			var prefs []string
			for j := 0; j < len(o) && prefs == nil; j++ {
				c := o[(i/2+j)%len(o)]
				if p := pool[c]; len(p) > 0 {
					prefs, pool[c] = p[len(p)-1], p[:len(p)-1]
				}
			}
			if prefs == nil {
				return reqs
			}
			reqs = append(reqs, serve.QueryRequest{Algorithm: "hybrid", Prefs: prefs, SkybandK: k, OmitValues: true})
		}
	}
	return reqs
}

// --- anti-sharded ---------------------------------------------------------

// antiCycle is the number of requests in one cycle of the anti-sharded
// sequence: the composition mix once at each band width. At 30
// compositions per band width the median and the 90th percentile of a
// cycle's costs fall inside clusters of similar shapes, not across a
// gap between them, so they do not jump between runs.
const antiCycle = 60

// runAntiSharded: a static anticorrelated collection split in two
// shards, queried by one closed-loop client with a new preference shape
// on every request, so every query misses the cache and runs the engine
// and the shard merge while the wire stays small (omitValues).
func runAntiSharded(r *run) error {
	const name, shards = "anti", 2
	in, err := r.genStatic("anticorrelated", r.n(50000, 500), 8)
	if err != nil {
		return err
	}
	defer os.RemoveAll(in.dir)

	// One distinct shape per request, more than a window can use.
	reqs := antiRequests(rand.New(rand.NewSource(r.cfg.seed)), 8, 4096)
	seen := make(map[string]bool, len(reqs))
	for i := range reqs {
		fp := serve.QueryFingerprint(&reqs[i])
		if seen[fp] {
			return fmt.Errorf("request %d repeats an earlier shape", i)
		}
		seen[fp] = true
	}

	e, err := r.timedSetups(5, func(int) (*env, error) { return attachStatic(in, name, shards, 1, r.cfg.trace) })
	if err != nil {
		return err
	}
	defer e.close()

	// A seeded reservoir keeps a uniform sample of the answers for the
	// check against Q-Flow. One client: the closed loop numbers requests
	// in sequence order, and base carries the sequence on into the
	// traced window.
	const sampleSize = 3
	type answer struct {
		i    int
		resp *serve.QueryResponse
	}
	var sample []answer
	answered := 0
	srng := rand.New(rand.NewSource(r.cfg.seed ^ 0x5eed))
	ctx := context.Background()
	query := func(base int, do func(i int) (*serve.QueryResponse, time.Duration, error)) func(int) (time.Duration, error) {
		return func(i int) (time.Duration, error) {
			i += base
			if i >= len(reqs) {
				return 0, fmt.Errorf("request sequence exhausted")
			}
			resp, lat, err := do(i)
			if err != nil {
				return lat, err
			}
			if err := wellFormed(resp, reqs[i].SkybandK, in.ds.N()); err != nil {
				r.mismatch("anti-sharded query %d: %v", i, err)
			}
			if answered++; len(sample) < sampleSize {
				sample = append(sample, answer{i, resp})
			} else if j := srng.Intn(answered); j < sampleSize {
				sample[j] = answer{i, resp}
			}
			return lat, nil
		}
	}
	hits0, err := cacheHits(e, name)
	if err != nil {
		return err
	}
	settle()
	rt0 := readRuntime()
	st := closedLoop(r.window(), 1, antiCycle, query(0, func(i int) (*serve.QueryResponse, time.Duration, error) {
		start := time.Now()
		resp, err := e.cl.Query(ctx, name, &reqs[i])
		return resp, time.Since(start), err
	}))
	rt1 := readRuntime()
	r.account(st)
	r.reportQueries(st)
	hits1, err := cacheHits(e, name)
	if err != nil {
		return err
	}
	hits := hits1 - hits0
	r.setLayer("store.cache_hit_ratio", ratio(float64(hits), float64(st.done)), "ratio")
	r.selfCheck(hits == 0, "anti-sharded: %d cache hits, want 0 (every shape distinct)", hits)
	r.selfCheck(len(st.lat) >= 10, "anti-sharded: only %d queries completed", len(st.lat))
	executed := int(st.done)

	if r.cfg.trace {
		r.reportRuntime(rt0, rt1, len(st.lat))
		sst, shadow, err := shadowStatic(in.ds, shards)
		if err != nil {
			return err
		}
		defer sst.Close()
		acc := &layerAcc{}
		traced := closedLoop(r.window(), 1, antiCycle, query(executed, func(i int) (*serve.QueryResponse, time.Duration, error) {
			return r.tracedQuery(e, name, &reqs[i], uint64(i), shadow, acc)
		}))
		r.account(traced)
		r.reportOverhead(st, traced)
		r.reportLayers(acc, e.cl.RetryCount())
		qs := make([]skybench.Query, 0, 6)
		for i := 0; i < executed && len(qs) < cap(qs); i++ {
			q, err := toQuery(&reqs[i])
			if err != nil {
				return err
			}
			qs = append(qs, q)
		}
		if err := r.engineProbe(in.ds, qs); err != nil {
			return err
		}
	}

	// Sample check: a seeded sample of answered queries against an
	// unsharded run of a different algorithm (Q-Flow).
	eng := skybench.NewEngine(0)
	defer eng.Close()
	for _, a := range sample {
		q, err := toQuery(&reqs[a.i])
		if err != nil {
			return err
		}
		q.Algorithm = skybench.QFlow
		want, err := eng.Run(ctx, in.ds, q)
		if err != nil {
			return fmt.Errorf("reference run: %w", err)
		}
		if err := sameBand(a.resp.Indices, a.resp.Counts, want.Indices, want.Counts); err != nil {
			r.mismatch("anti-sharded query %d (%v k=%d): %v", a.i, reqs[a.i].Prefs, reqs[a.i].SkybandK, err)
		}
	}
	r.note("anti-sharded: %d of %d answers, sampled, checked against unsharded Q-Flow", len(sample), answered)
	return nil
}

// cacheHits reads the named collection's server-side cache hit count
// over the wire.
func cacheHits(e *env, name string) (uint64, error) {
	info, err := e.cl.Info(context.Background(), name)
	if err != nil {
		return 0, fmt.Errorf("reading cache counters: %w", err)
	}
	return info.Cache.Hits, nil
}

// wellFormed checks what every answer must satisfy: a static epoch, one
// count per row for k-skyband queries, each below k, and the whole
// collection as input.
func wellFormed(resp *serve.QueryResponse, k, n int) error {
	if resp.Epoch != 0 || resp.Count != len(resp.Indices) || resp.Stats.InputSize != n {
		return fmt.Errorf("malformed answer (epoch %d, count %d of %d rows, input %d of %d)",
			resp.Epoch, resp.Count, len(resp.Indices), resp.Stats.InputSize, n)
	}
	if k < 2 {
		return nil
	}
	if len(resp.Counts) != len(resp.Indices) {
		return fmt.Errorf("%d counts for %d rows", len(resp.Counts), len(resp.Indices))
	}
	for _, c := range resp.Counts {
		if c < 0 || int(c) >= k {
			return fmt.Errorf("dominator count %d outside [0,%d)", c, k)
		}
	}
	return nil
}
