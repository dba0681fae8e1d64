package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sync"
	"time"

	"skybench"
	"skybench/serve"
)

// hotPlan fixes, per popularity rank, how many dimensions a hot shape
// ignores, its band width, and the answer size it aims at. The seed
// draws candidate shapes of that kind (which dimensions, which
// directions) and keeps the one whose answer is closest to the aim, so
// every seed serves nearly the same mix of 2k–15k-row answers.
var hotPlan = [16]struct{ ignored, k, rows int }{
	{1, 1, 5500}, {0, 1, 9500}, {2, 2, 3800}, {1, 2, 7900}, {2, 1, 2400}, {0, 1, 9500}, {1, 1, 5500}, {2, 2, 3800},
	{0, 2, 14500}, {1, 2, 7900}, {2, 1, 2400}, {1, 1, 5500}, {0, 1, 9500}, {2, 2, 3800}, {1, 2, 7900}, {2, 1, 2400},
}

// zipfCycle lists shape ranks in Zipf(s=1) proportions over one cycle
// of 64 requests, every rank at least once.
func zipfCycle() []int {
	const slots = 64
	var w [len(hotPlan)]float64
	var sum float64
	for r := range w {
		w[r] = 1 / float64(r+1)
		sum += w[r]
	}
	var cycle []int
	for r := len(w) - 1; r >= 0; r-- { // rank 0 takes the rounding slack
		c := max(1, int(math.Round(slots*w[r]/sum)))
		if r == 0 {
			c = slots - len(cycle)
		}
		for ; c > 0; c-- {
			cycle = append(cycle, r)
		}
	}
	return cycle
}

// hotShape is one hot query with its reference answer.
type hotShape struct {
	req        serve.QueryRequest
	wantIdx    []int
	wantCnt    []int32
	mu         sync.Mutex
	good       map[uint64]bool // digests of answers already verified in full
	fullChecks int
}

// check verifies one response against the reference, values included.
// A response identical to one already verified is recognized by its
// digest, so the cost per request stays small.
func (h *hotShape) check(resp *serve.QueryResponse, ds *skybench.Dataset) error {
	d := digest(resp)
	h.mu.Lock()
	ok := h.good[d]
	h.mu.Unlock()
	if ok {
		return nil
	}
	if err := sameBand(resp.Indices, resp.Counts, h.wantIdx, h.wantCnt); err != nil {
		return err
	}
	if len(resp.Values) != len(resp.Indices) {
		return fmt.Errorf("%d value rows for %d points", len(resp.Values), len(resp.Indices))
	}
	for i, x := range resp.Indices {
		want := ds.Row(x)
		if len(resp.Values[i]) != len(want) {
			return fmt.Errorf("row %d has %d values, want %d", x, len(resp.Values[i]), len(want))
		}
		for j, v := range resp.Values[i] {
			if v != want[j] {
				return fmt.Errorf("row %d value %d is %v, want %v", x, j, v, want[j])
			}
		}
	}
	h.mu.Lock()
	h.good[d] = true
	h.fullChecks++
	h.mu.Unlock()
	return nil
}

// digest hashes a response's rows, counts and values in response order.
func digest(resp *serve.QueryResponse) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(x uint64) { h = (h ^ x) * prime }
	mix(uint64(len(resp.Indices)))
	for _, x := range resp.Indices {
		mix(uint64(x))
	}
	for _, c := range resp.Counts {
		mix(uint64(c))
	}
	for _, row := range resp.Values {
		for _, v := range row {
			mix(math.Float64bits(v))
		}
	}
	return h
}

// hotShapes picks the hot shapes by rank (see hotPlan) and computes
// their reference answers.
func hotShapes(r *run, rng *rand.Rand, ds *skybench.Dataset) ([]*hotShape, error) {
	eng := skybench.NewEngine(0)
	defer eng.Close()
	seen := make(map[string]bool)
	shapes := make([]*hotShape, len(hotPlan))
	for rank, plan := range hotPlan {
		req, ref, err := closestShape(eng, ds, float64(plan.rows)*r.cfg.scale, seen, func() serve.QueryRequest {
			prefs := make([]string, 8)
			for j := range prefs {
				prefs[j] = [2]string{"min", "max"}[rng.Intn(2)]
			}
			for _, j := range rng.Perm(8)[:plan.ignored] {
				prefs[j] = "ignore"
			}
			return serve.QueryRequest{Algorithm: "hybrid", Prefs: prefs, SkybandK: plan.k}
		})
		if err != nil {
			return nil, err
		}
		shapes[rank] = &hotShape{req: req, wantIdx: ref.Indices, wantCnt: ref.Counts, good: make(map[uint64]bool)}
	}
	return shapes, nil
}

// runHotHits: a static independent collection whose 16 hot shapes are
// warmed into the result cache at set-up and then requested by two
// closed-loop clients in Zipf proportions, values returned. Almost no
// engine work: the time is cache lookup, response build, JSON encode
// and write, and client decode.
func runHotHits(r *run) error {
	const name = "hot"
	in, err := r.genStatic("independent", r.n(100000, 2000), 8)
	if err != nil {
		return err
	}
	defer os.RemoveAll(in.dir)

	// Shapes and their reference answers, outside any timed part.
	ctx := context.Background()
	rng := rand.New(rand.NewSource(r.cfg.seed))
	shapes, err := hotShapes(r, rng, in.ds)
	if err != nil {
		return err
	}
	sizes := make([]float64, len(shapes))
	for i, h := range shapes {
		sizes[i] = float64(len(h.wantIdx))
	}
	r.note("hot-hits: answer rows by rank: %s", fmtFloats(sizes, "%.0f"))
	cycle := zipfCycle()
	schedule := make([]int, 0, 64*len(cycle))
	for len(schedule) < cap(schedule) {
		rng.Shuffle(len(cycle), func(a, b int) { cycle[a], cycle[b] = cycle[b], cycle[a] })
		schedule = append(schedule, cycle...)
	}

	e, err := r.timedSetups(3, func(int) (*env, error) {
		e, err := attachStatic(in, name, 0, 2, r.cfg.trace)
		if err != nil {
			return nil, err
		}
		for _, h := range shapes {
			if _, err := e.cl.Query(ctx, name, &h.req); err != nil {
				e.close()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		return e, nil
	})
	if err != nil {
		return err
	}
	defer e.close()

	verify := func(i int, resp *serve.QueryResponse) {
		h := shapes[schedule[i%len(schedule)]]
		if err := wellFormed(resp, h.req.SkybandK, in.ds.N()); err != nil {
			r.mismatch("hot-hits request %d: %v", i, err)
		} else if err := h.check(resp, in.ds); err != nil {
			r.mismatch("hot-hits request %d (%v k=%d): %v", i, h.req.Prefs, h.req.SkybandK, err)
		}
	}
	hits0, err := cacheHits(e, name)
	if err != nil {
		return err
	}
	settle()
	rt0 := readRuntime()
	st := closedLoop(r.window(), 2, len(cycle), func(i int) (time.Duration, error) {
		start := time.Now()
		resp, err := e.cl.Query(ctx, name, &shapes[schedule[i%len(schedule)]].req)
		lat := time.Since(start)
		if err == nil {
			verify(i, resp)
		}
		return lat, err
	})
	rt1 := readRuntime()
	r.account(st)
	r.reportQueries(st)
	hits1, err := cacheHits(e, name)
	if err != nil {
		return err
	}
	hitRatio := ratio(float64(hits1-hits0), float64(st.done))
	r.setLayer("store.cache_hit_ratio", hitRatio, "ratio")
	r.selfCheck(hitRatio >= 0.99, "hot-hits: cache hit ratio %.4f, want >= 0.99 after warm-up", hitRatio)
	r.selfCheck(len(st.lat) >= 10, "hot-hits: only %d queries completed", len(st.lat))

	if r.cfg.trace {
		r.reportRuntime(rt0, rt1, len(st.lat))
		sst, shadow, err := shadowStatic(in.ds, 0)
		if err != nil {
			return err
		}
		defer sst.Close()
		var qs []skybench.Query
		for _, h := range shapes {
			q, err := toQuery(&h.req)
			if err != nil {
				return err
			}
			if _, err := shadow.Run(ctx, q); err != nil {
				return fmt.Errorf("shadow warm-up: %w", err)
			}
			qs = append(qs, q)
		}
		acc := &layerAcc{}
		traced := closedLoop(r.window(), 2, len(cycle), func(i int) (time.Duration, error) {
			resp, lat, err := r.tracedQuery(e, name, &shapes[schedule[i%len(schedule)]].req, uint64(i), shadow, acc)
			if err == nil {
				verify(i, resp)
			}
			return lat, err
		})
		r.account(traced)
		r.reportOverhead(st, traced)
		r.reportLayers(acc, e.cl.RetryCount())
		if err := r.engineProbe(in.ds, qs[:8]); err != nil {
			return err
		}
	}
	full := 0
	for _, h := range shapes {
		full += h.fullChecks
	}
	r.note("hot-hits: every answer checked, %d in full and the rest by digest of a fully checked one", full)
	return nil
}
