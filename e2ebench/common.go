package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"skybench"
	"skybench/serve"
)

// timedSetups builds the serving state reps times, each time on a fresh
// server, keeps the last one and reports the median as setup_s. build
// closes whatever it started when it fails.
func (r *run) timedSetups(reps int, build func(i int) (*env, error)) (*env, error) {
	var secs []float64
	var e *env
	for i := 0; i < reps; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, fmt.Errorf("closing set-up %d: %w", i-1, err)
			}
			e = nil
		}
		runtime.GC()
		start := time.Now()
		ne, err := build(i)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(start).Seconds())
		e = ne
	}
	r.setE2E("setup_s", quantile(secs, 0.5), "s")
	r.note("setup_s of %d set-ups: %s", reps, fmtFloats(secs, "%.4f"))
	return e, nil
}

// loopStats is what one load window measured.
type loopStats struct {
	lat     []float64 // ms, successful requests only
	done    int64     // requests attempted
	failed  int64
	elapsed time.Duration
}

// closedLoop runs clients goroutines, each sending its next request as
// soon as the previous one completed. Requests are numbered 0, 1, 2, ...
// in the order clients take them; the window closes at the first
// multiple of cycle after the window's time is up, so a run always
// measures whole cycles of the request sequence. send times its own
// request and returns that latency; checks it makes on the answer run
// after the timed part.
func closedLoop(window time.Duration, clients, cycle int, send func(i int) (time.Duration, error)) loopStats {
	var (
		mu     sync.Mutex
		st     loopStats
		seq    atomic.Int64
		stopAt atomic.Int64
		wg     sync.WaitGroup
	)
	stopAt.Store(math.MaxInt64)
	start := time.Now()
	deadline := start.Add(window)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := seq.Add(1) - 1
				if !time.Now().Before(deadline) {
					stopAt.CompareAndSwap(math.MaxInt64, (i+int64(cycle)-1)/int64(cycle)*int64(cycle))
				}
				if i >= stopAt.Load() {
					return
				}
				lat, err := send(int(i))
				mu.Lock()
				st.done++
				if err != nil {
					st.failed++
				} else {
					st.lat = append(st.lat, ms(lat))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	st.elapsed = time.Since(start)
	return st
}

// account adds a window's requests to the run's attempted/failed totals.
func (r *run) account(st loopStats) {
	r.attempted += st.done
	r.failed += st.failed
}

// settle collects the garbage of set-up and returns it to the OS, so
// the measured window starts from the same footprint on every run.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// reportQueries sets the end-to-end query metrics from an untraced
// window, and the peak resident set so far.
func (r *run) reportQueries(st loopStats) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		r.setE2E("max_rss_mb", float64(ru.Maxrss)/1024, "MB") // Linux reports KiB
	}
	r.setE2E("query_p50_ms", quantile(st.lat, 0.5), "ms")
	r.setE2E("query_p90_ms", quantile(st.lat, 0.9), "ms")
	r.setE2E("query_per_s", float64(len(st.lat))/st.elapsed.Seconds(), "1/s")
	r.note("queries: %d ok of %d in %.2fs", len(st.lat), st.done, st.elapsed.Seconds())
}

// rtSnap is a reading of the Go runtime's allocation and GC counters.
type rtSnap struct {
	alloc, pauseNs uint64
	gcs            uint32
}

func readRuntime() rtSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return rtSnap{alloc: m.TotalAlloc, pauseNs: m.PauseTotalNs, gcs: m.NumGC}
}

// reportRuntime sets the runtime metrics of an untraced window that
// completed queries queries (server and client share the process).
func (r *run) reportRuntime(before, after rtSnap, queries int) {
	r.setLayer("runtime.alloc_bytes_per_query", ratio(float64(after.alloc-before.alloc), float64(queries)), "B")
	r.setLayer("runtime.gc_cycles", float64(after.gcs-before.gcs), "count")
	r.setLayer("runtime.gc_pause_ms", float64(after.pauseNs-before.pauseNs)/1e6, "ms")
}

// reportOverhead sets the traced-minus-untraced median latency.
func (r *run) reportOverhead(untraced, traced loopStats) {
	r.setLayer("trace.overhead_ms", quantile(traced.lat, 0.5)-quantile(untraced.lat, 0.5), "ms")
}

// toQuery converts a wire query into the in-process Query the server
// builds from it.
func toQuery(req *serve.QueryRequest) (skybench.Query, error) {
	q := skybench.Query{SkybandK: req.SkybandK}
	if req.Algorithm != "" {
		a, err := skybench.ParseAlgorithm(req.Algorithm)
		if err != nil {
			return q, err
		}
		q.Algorithm = a
	}
	for _, p := range req.Prefs {
		switch p {
		case "min":
			q.Prefs = append(q.Prefs, skybench.Min)
		case "max":
			q.Prefs = append(q.Prefs, skybench.Max)
		case "ignore":
			q.Prefs = append(q.Prefs, skybench.Ignore)
		default:
			return q, fmt.Errorf("preference %q", p)
		}
	}
	return q, nil
}

// closestShape draws candidate shapes until one's answer over ds is
// within 2% of aim rows, at most 8, and returns the closest with its
// answer. Shapes in seen are skipped; the returned one is added.
func closestShape(eng *skybench.Engine, ds *skybench.Dataset, aim float64, seen map[string]bool, draw func() serve.QueryRequest) (serve.QueryRequest, skybench.Result, error) {
	var best serve.QueryRequest
	var bestRes skybench.Result
	bestOff := math.Inf(1)
	for try := 0; try < 8 && bestOff > 0.02; try++ {
		req := draw()
		if seen[serve.QueryFingerprint(&req)] {
			continue
		}
		q, err := toQuery(&req)
		if err != nil {
			return best, bestRes, err
		}
		res, err := eng.Run(context.Background(), ds, q)
		if err != nil {
			return best, bestRes, fmt.Errorf("reference run: %w", err)
		}
		if off := math.Abs(float64(len(res.Indices))-aim) / aim; off < bestOff {
			best, bestRes, bestOff = req, res, off
		}
	}
	if math.IsInf(bestOff, 1) {
		return best, bestRes, fmt.Errorf("no new shape in 8 draws")
	}
	seen[serve.QueryFingerprint(&best)] = true
	return best, bestRes, nil
}

// sameBand compares two answers as sets of (row, dominator count).
// Nil counts mean every count is 0.
func sameBand(gotIdx []int, gotCnt []int32, wantIdx []int, wantCnt []int32) error {
	if len(gotIdx) != len(wantIdx) {
		return fmt.Errorf("%d points, want %d", len(gotIdx), len(wantIdx))
	}
	want := make(map[int]int32, len(wantIdx))
	for i, x := range wantIdx {
		want[x] = countAt(wantCnt, i)
	}
	for i, x := range gotIdx {
		c, ok := want[x]
		if !ok {
			return fmt.Errorf("row %d is not in the expected answer", x)
		}
		if got := countAt(gotCnt, i); got != c {
			return fmt.Errorf("row %d has count %d, want %d", x, got, c)
		}
		delete(want, x)
	}
	if len(want) != 0 {
		return fmt.Errorf("%d rows returned twice", len(want))
	}
	return nil
}

func countAt(c []int32, i int) int32 {
	if c == nil {
		return 0
	}
	return c[i]
}

// layerAcc sums the per-request layer timings of a traced window.
type layerAcc struct {
	mu                                                   sync.Mutex
	n                                                    int
	wall, ttfb, body, bytes, storeRun, storeSelf, engine float64
	sharded                                              int
	merge, candidates, yield, skew                       float64
}

// tracedQuery sends one wire query through the timing transport,
// replays it in process on the shadow collection (the same data and
// options as the served one, on its own Store), and records the
// request's spans and layer timings under reqID.
func (r *run) tracedQuery(e *env, name string, req *serve.QueryRequest, reqID uint64, shadow *skybench.Collection, acc *layerAcc) (*serve.QueryResponse, time.Duration, error) {
	wreq := *req
	wreq.Trace = true
	var tm reqTiming
	start := time.Now()
	resp, err := e.cl.Query(withTiming(context.Background(), &tm), name, &wreq)
	end := time.Now()
	if err != nil {
		return nil, end.Sub(start), err
	}
	root := r.tr.add(reqID, 0, "client.query", start, end)
	srvSpan := r.tr.add(reqID, root, "serve", tm.sent, tm.headers)
	r.tr.add(reqID, root, "client.body", tm.headers, end)

	q, err := toQuery(req)
	if err != nil {
		return nil, 0, err
	}
	q.Trace = true
	s0 := time.Now()
	res, err := shadow.Run(context.Background(), q)
	s1 := time.Now()
	if err != nil {
		return nil, 0, fmt.Errorf("in-process replay: %w", err)
	}
	st := r.tr.addReplay(reqID, srvSpan, "store", s0, s1)
	var engine time.Duration
	if !res.Trace.CacheHit {
		// The engine call ends Collection.Run; its span is placed at the
		// end of the store span with the trace's elapsed time.
		engine = res.Trace.Elapsed
		e0 := s1.Add(-engine)
		eng := r.tr.add(reqID, st, "engine", e0, s1)
		var longest time.Duration
		for _, sh := range res.Trace.Shards {
			r.tr.add(reqID, eng, "shard", e0, e0.Add(sh.Elapsed))
			longest = max(longest, sh.Elapsed)
		}
		if len(res.Trace.Shards) > 0 {
			r.tr.add(reqID, eng, "shard.merge", e0.Add(longest), s1)
		}
	}

	acc.mu.Lock()
	defer acc.mu.Unlock()
	acc.n++
	acc.wall += ms(end.Sub(start))
	acc.ttfb += ms(tm.headers.Sub(tm.sent))
	acc.body += ms(end.Sub(tm.headers))
	acc.bytes += float64(tm.bytes)
	acc.storeRun += ms(s1.Sub(s0))
	acc.storeSelf += ms(s1.Sub(s0) - engine)
	acc.engine += ms(engine)
	if t := resp.Trace; t != nil && len(t.Shards) > 0 {
		var longest, shortest time.Duration
		var cands int
		for i, sh := range t.Shards {
			if i == 0 || sh.Elapsed < shortest {
				shortest = sh.Elapsed
			}
			longest = max(longest, sh.Elapsed)
			cands += sh.Output
		}
		acc.sharded++
		acc.merge += ms(t.Elapsed - longest)
		acc.candidates += float64(cands)
		acc.yield += ratio(float64(t.Output), float64(cands))
		acc.skew += ratio(float64(longest), float64(shortest))
	}
	return resp, end.Sub(start), nil
}

// reportLayers sets the request-path layer metrics from a traced window.
func (r *run) reportLayers(acc *layerAcc, retries uint64) {
	n := float64(acc.n)
	r.setLayer("serve.ttfb_ms", ratio(acc.ttfb, n), "ms")
	r.setLayer("serve.self_ms", ratio(acc.ttfb-acc.storeRun, n), "ms")
	r.setLayer("serve.resp_bytes", ratio(acc.bytes, n), "B")
	r.setLayer("client.body_ms", ratio(acc.body, n), "ms")
	r.setLayer("client.retries", float64(retries), "count")
	r.setLayer("store.run_ms", ratio(acc.storeRun, n), "ms")
	r.setLayer("store.self_ms", ratio(acc.storeSelf, n), "ms")
	r.setLayer("engine.request_ms", ratio(acc.engine, n), "ms")
	r.setLayer("trace.request_ms", ratio(acc.wall, n), "ms")
	r.setLayer("trace.residual_ms", ratio(acc.wall-acc.ttfb-acc.body, n), "ms")
	s := float64(acc.sharded)
	r.setLayer("shard.merge_ms", ratio(acc.merge, s), "ms")
	r.setLayer("shard.candidates", ratio(acc.candidates, s), "count")
	r.setLayer("shard.candidate_yield", ratio(acc.yield, s), "ratio")
	r.setLayer("shard.skew", ratio(acc.skew, s), "ratio")

	// Where the request wall clock went, layer by layer (ms/request).
	// serve is the server's share of time-to-headers beyond the Store
	// call; residual is the client time outside the transport.
	r.note("layer self time per request (ms): client.send(residual) %.3f | serve %.3f | store %.3f | engine %.3f | client.body %.3f | = wall %.3f over %d traced requests",
		ratio(acc.wall-acc.ttfb-acc.body, n), ratio(acc.ttfb-acc.storeRun, n), ratio(acc.storeSelf, n),
		ratio(acc.engine, n), ratio(acc.body, n), ratio(acc.wall, n), acc.n)
	self, count := r.tr.selfTimes()
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	var parts []string
	for _, name := range names {
		parts = append(parts, fmt.Sprintf("%s %.3f (x%d)", name, ratio(self[name], float64(count[name])), count[name]))
	}
	r.note("mean self time per span (ms): %s", strings.Join(parts, " | "))
}

// probeRes sums one thread setting's engine runs.
type probeRes struct {
	elapsed, phase12 time.Duration
	timings          skybench.PhaseTimings
	dts              uint64
	in, pruned, p1   int
}

func (p *probeRes) add(res *skybench.Result) {
	s := &res.Stats
	p.elapsed += s.Elapsed
	p.phase12 += s.Timings.PhaseOne + s.Timings.PhaseTwo
	t := &p.timings
	t.Init += s.Timings.Init
	t.Prefilter += s.Timings.Prefilter
	t.Pivot += s.Timings.Pivot
	t.PhaseOne += s.Timings.PhaseOne
	t.PhaseTwo += s.Timings.PhaseTwo
	t.Compress += s.Timings.Compress
	t.Other += s.Timings.Other
	p.dts += s.DominanceTests
	p.in += s.InputSize
	p.pruned += s.PrefilterPruned
	p.p1 += s.Phase1Survivors
}

// engineProbe runs the workload's query shapes straight on an Engine
// over the workload's data, unsharded, at one thread and at every CPU,
// and sets the engine and point metrics.
func (r *run) engineProbe(ds *skybench.Dataset, qs []skybench.Query) error {
	eng := skybench.NewEngine(0)
	defer eng.Close()
	ctx := context.Background()
	if _, err := eng.Run(ctx, ds, qs[0]); err != nil { // warm the contexts
		return fmt.Errorf("engine probe: %w", err)
	}
	var all, one probeRes
	for i, q := range qs {
		for _, threads := range []int{0, 1} {
			q.Threads = threads
			start := time.Now()
			res, err := eng.Run(ctx, ds, q)
			if err != nil {
				return fmt.Errorf("engine probe: %w", err)
			}
			name := "probe.engine.all"
			if threads == 1 {
				name = "probe.engine.t1"
				one.add(&res)
			} else {
				all.add(&res)
			}
			r.tr.add(1<<32+uint64(i), 0, name, start, time.Now())
		}
	}
	n := float64(len(qs))
	t := &all.timings
	r.setLayer("engine.run_ms", ms(all.elapsed)/n, "ms")
	for _, ph := range []struct {
		name string
		d    time.Duration
	}{{"init", t.Init}, {"prefilter", t.Prefilter}, {"pivot", t.Pivot}, {"phase1", t.PhaseOne},
		{"phase2", t.PhaseTwo}, {"compress", t.Compress}, {"other", t.Other}} {
		r.setLayer("engine."+ph.name+"_ms", ms(ph.d)/n, "ms")
	}
	r.setLayer("engine.dominance_tests_t1", float64(one.dts)/n, "count")
	r.setLayer("engine.t1_ms", ms(one.elapsed)/n, "ms")
	r.setLayer("engine.speedup", ratio(float64(one.elapsed), float64(all.elapsed)), "ratio")
	r.setLayer("engine.prefilter_pruned_ratio", ratio(float64(all.pruned), float64(all.in)), "ratio")
	r.setLayer("engine.phase1_survivor_ratio", ratio(float64(all.p1), float64(all.in-all.pruned)), "ratio")
	r.setLayer("point.ns_per_dt", ratio(float64(one.phase12.Nanoseconds()), float64(one.dts)), "ns")
	r.note("engine probe: %d shapes, unsharded, t=1 vs t=%d", len(qs), eng.Threads())
	return nil
}

func fmtFloats(xs []float64, format string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(format, x)
	}
	return strings.Join(parts, " ")
}
