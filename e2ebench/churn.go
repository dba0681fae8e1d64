package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"skybench"
	"skybench/serve"
	"skybench/stream"
)

const (
	churnD      = 6
	churnBatch  = 16                    // points inserted, and points deleted, per round
	churnPeriod = 10 * time.Millisecond // 100 rounds/s
	churnAim    = 1750                  // typical skyline of 50,000 uniform points in 6 dimensions
)

// churn is the serving state of the stream-churn workload.
type churn struct {
	r    *run
	e    *env
	ix   *stream.SkylineIndex
	dir  string   // the index's WAL directory
	live []uint64 // IDs the writer believes live
	n0   int      // live-set size the writer holds
	rng  *rand.Rand
}

// writeStats is what the open-loop writer measured in one window.
type writeStats struct {
	lat, late      []float64 // ms per round: from due time to done, and to start
	ops, failed    int64     // wire requests
	mutations      int64     // points inserted plus points deleted
	userBytes      int64     // coordinates inserted plus IDs deleted
	elapsed        time.Duration
	liveLo, liveHi int
}

// runStreamChurn: a durable stream collection (FsyncOS) held at a fixed
// live size by an open-loop writer — 100 rounds/s, each one Insert of
// 16 points and 16 single deletes of random live IDs — while one
// closed-loop reader queries it. Every read sees a new epoch, so the
// Store materializes a snapshot and recomputes; the writes exercise the
// incremental index and the WAL.
func runStreamChurn(r *run) error {
	const name = "churn"
	n0 := r.n(50000, 1000)
	rng := rand.New(rand.NewSource(r.cfg.seed))
	initial := make([][]float64, n0)
	for i := range initial {
		initial[i] = randPoint(rng)
	}
	readers, err := churnReaders(r, rng, initial)
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(r.cfg.out, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	c := &churn{r: r, n0: n0, rng: rng}
	ctx := context.Background()
	e, err := r.timedSetups(3, func(i int) (*env, error) {
		e, err := startEnv(2, r.cfg.trace)
		if err != nil {
			return nil, err
		}
		dir := filepath.Join(tmp, fmt.Sprintf("wal-%d", i))
		ix, err := stream.New(churnD, stream.Config{Durable: &stream.Durability{Dir: dir, Fsync: stream.FsyncOS}})
		if err != nil {
			e.close()
			return nil, err
		}
		if _, err := e.srv.AttachStreamIndex(name, ix, true, skybench.CollectionOptions{}); err != nil {
			ix.Close()
			e.close()
			return nil, err
		}
		live := make([]uint64, 0, n0+churnBatch)
		for lo := 0; lo < n0; lo += 1000 {
			ids, err := e.cl.Insert(ctx, name, initial[lo:min(lo+1000, n0)])
			if err != nil {
				e.close()
				return nil, fmt.Errorf("preload: %w", err)
			}
			live = append(live, ids...)
		}
		c.e, c.ix, c.dir, c.live = e, ix, dir, live
		return e, nil
	})
	if err != nil {
		return err
	}
	defer e.close()

	// Untraced window: the end-to-end numbers, and in the traced run
	// also the stream, WAL, writer and runtime counters.
	s0, d0 := c.ix.Stats(), durability(c.ix)
	var poll *dirPoll
	if r.cfg.trace {
		poll = pollDir(c.dir, 20*time.Millisecond)
	}
	settle()
	rt0 := readRuntime()
	reads, writes := c.window(name, readers, nil)
	rt1 := readRuntime()
	s1, d1 := c.ix.Stats(), durability(c.ix)
	r.account(reads)
	r.attempted += writes.ops
	r.failed += writes.failed
	r.reportQueries(reads)
	r.reportWrites(writes)
	lateP90 := quantile(writes.late, 0.9)
	r.selfCheck(lateP90 < ms(churnPeriod), "stream-churn: writer ran %.3f ms late at p90, want below the %v round period", lateP90, churnPeriod)
	r.selfCheck(writes.liveLo >= n0-churnBatch && writes.liveHi <= n0+churnBatch,
		"stream-churn: live set ranged %d..%d, want %d ± %d", writes.liveLo, writes.liveHi, n0, churnBatch)
	r.selfCheck(len(reads.lat) >= 10, "stream-churn: only %d reads completed", len(reads.lat))

	if r.cfg.trace {
		grown := poll.finish()
		r.reportRuntime(rt0, rt1, len(reads.lat))
		muts := float64(writes.mutations)
		r.setLayer("stream.dts_per_mutation", ratio(float64(s1.DominanceTests-s0.DominanceTests), muts), "count")
		r.setLayer("stream.rebuilds", float64(s1.Rebuilds-s0.Rebuilds), "count")
		r.setLayer("stream.resurrections", float64(s1.Resurrections-s0.Resurrections), "count")
		r.setLayer("stream.churn_per_mutation", ratio(float64(s1.Entered+s1.Left-s0.Entered-s0.Left), muts), "ratio")
		r.setLayer("wal.fsyncs", float64(d1.WALFsyncs-d0.WALFsyncs), "count")
		r.setLayer("wal.checkpoints", float64(d1.Checkpoints-d0.Checkpoints), "count")
		r.setLayer("wal.checkpoint_ms", ms(d1.CheckpointTime-d0.CheckpointTime), "ms")
		r.setLayer("wal.bytes_per_user_byte", ratio(float64(grown), float64(writes.userBytes)), "ratio")

		// Traced window: the request-path layers of the reads.
		sst := skybench.NewStore(0)
		defer sst.Close()
		shadow, err := sst.AttachStream("shadow", c.ix, skybench.CollectionOptions{})
		if err != nil {
			return err
		}
		acc := &layerAcc{}
		var snapMs []float64
		tracedReads, tracedWrites := c.window(name, readers, func(i int, req *serve.QueryRequest) (*serve.QueryResponse, time.Duration, error) {
			resp, lat, err := r.tracedQuery(e, name, req, uint64(i), shadow, acc)
			if err == nil {
				start := time.Now()
				c.ix.LiveSnapshot()
				end := time.Now()
				r.tr.add(uint64(i), 0, "stream.snapshot", start, end)
				snapMs = append(snapMs, ms(end.Sub(start)))
			}
			return resp, lat, err
		})
		r.account(tracedReads)
		r.attempted += tracedWrites.ops
		r.failed += tracedWrites.failed
		r.reportOverhead(reads, tracedReads)
		r.reportLayers(acc, e.cl.RetryCount())
		r.setLayer("stream.snapshot_ms", mean(snapMs), "ms")

		vals, _, _ := c.ix.LiveSnapshot()
		ds, err := skybench.DatasetFromFlat(vals, len(vals)/churnD, churnD)
		if err != nil {
			return err
		}
		var qs []skybench.Query
		for i := range readers {
			q, err := toQuery(&readers[i])
			if err != nil {
				return err
			}
			qs = append(qs, q)
		}
		if err := r.engineProbe(ds, qs); err != nil {
			return err
		}
	}
	return c.checkFinal(name)
}

// churnReaders picks the reader's shapes: each is the one of up to 8
// seeded candidates whose skyline over the preloaded points is closest
// to churnAim rows, so every seed reads about as much. The skyline
// drifts with the churn but keeps its size.
func churnReaders(r *run, rng *rand.Rand, initial [][]float64) ([]serve.QueryRequest, error) {
	ds, err := skybench.NewDataset(initial)
	if err != nil {
		return nil, err
	}
	eng := skybench.NewEngine(0)
	defer eng.Close()
	seen := make(map[string]bool)
	readers := make([]serve.QueryRequest, 4)
	sizes := make([]float64, len(readers))
	for i := range readers {
		req, ref, err := closestShape(eng, ds, churnAim*r.cfg.scale, seen, func() serve.QueryRequest {
			prefs := make([]string, churnD)
			for j := range prefs {
				prefs[j] = [2]string{"min", "max"}[rng.Intn(2)]
			}
			return serve.QueryRequest{Algorithm: "hybrid", Prefs: prefs, OmitValues: true}
		})
		if err != nil {
			return nil, err
		}
		readers[i], sizes[i] = req, float64(len(ref.Indices))
	}
	r.note("stream-churn: reader skylines of %s rows over the preloaded points", fmtFloats(sizes, "%.0f"))
	return readers, nil
}

// window runs the writer and one reader side by side for the run's
// window. traced, when set, sends the reader's queries, and the writer
// records its spans.
func (c *churn) window(name string, readers []serve.QueryRequest,
	traced func(int, *serve.QueryRequest) (*serve.QueryResponse, time.Duration, error)) (loopStats, writeStats) {
	var tr *tracer
	if traced != nil {
		tr = c.r.tr
	}
	var ws writeStats
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ws = c.writer(name, tr)
	}()
	ctx := context.Background()
	var lastEpoch uint64
	reads := closedLoop(c.r.window(), 1, len(readers), func(i int) (time.Duration, error) {
		req := &readers[i%len(readers)]
		var resp *serve.QueryResponse
		var lat time.Duration
		var err error
		if traced != nil {
			resp, lat, err = traced(i, req)
		} else {
			start := time.Now()
			resp, err = c.e.cl.Query(ctx, name, req)
			lat = time.Since(start)
		}
		if err != nil {
			return lat, err
		}
		// Every read must be whole: one ID per row, the full live set as
		// input, and an epoch that never goes back.
		if resp.Count != len(resp.Indices) || len(resp.IDs) != resp.Count ||
			resp.Stats.InputSize < c.n0-churnBatch || resp.Stats.InputSize > c.n0+churnBatch || resp.Epoch < lastEpoch {
			c.r.mismatch("stream-churn read %d: malformed answer (count %d, %d rows, %d ids, input %d, epoch %d after %d)",
				i, resp.Count, len(resp.Indices), len(resp.IDs), resp.Stats.InputSize, resp.Epoch, lastEpoch)
		}
		lastEpoch = resp.Epoch
		return lat, nil
	})
	wg.Wait()
	return reads, ws
}

// writer is the open-loop writer: round j is due j periods after the
// window opened and is timed from its due time, so a stall counts
// against every round it delays.
func (c *churn) writer(name string, tr *tracer) writeStats {
	ctx := context.Background()
	ws := writeStats{liveLo: c.ix.Len(), liveHi: c.ix.Len()}
	start := time.Now()
	for j := 0; ; j++ {
		due := start.Add(time.Duration(j) * churnPeriod)
		if due.Sub(start) >= c.r.window() {
			break
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		began := time.Now()
		pts := make([][]float64, churnBatch)
		for i := range pts {
			pts[i] = randPoint(c.rng)
		}
		ws.ops++
		ids, err := c.e.cl.Insert(ctx, name, pts)
		if err != nil {
			ws.failed++
		} else {
			c.live = append(c.live, ids...)
			ws.mutations += churnBatch
			ws.userBytes += churnBatch * churnD * 8
		}
		inserted := time.Now()
		for k := 0; k < churnBatch; k++ {
			at := c.rng.Intn(len(c.live))
			id := c.live[at]
			c.live[at] = c.live[len(c.live)-1]
			c.live = c.live[:len(c.live)-1]
			ws.ops++
			if err := c.e.cl.Delete(ctx, name, id); err != nil {
				ws.failed++
				c.live = append(c.live, id) // still live as far as anyone knows
				continue
			}
			ws.mutations++
			ws.userBytes += 8
		}
		end := time.Now()
		ws.late = append(ws.late, ms(began.Sub(due)))
		ws.lat = append(ws.lat, ms(end.Sub(due)))
		if tr != nil {
			req := 1<<40 + uint64(j)
			round := tr.add(req, 0, "loadgen.round", due, end)
			tr.add(req, round, "client.insert", began, inserted)
			tr.add(req, round, "client.delete", inserted, end)
		}
		n := c.ix.Len()
		ws.liveLo, ws.liveHi = min(ws.liveLo, n), max(ws.liveHi, n)
	}
	ws.elapsed = time.Since(start)
	return ws
}

// reportWrites sets the writer's metrics.
func (r *run) reportWrites(ws writeStats) {
	r.setLayer("write_p50_ms", quantile(ws.lat, 0.5), "ms")
	r.setLayer("write_p90_ms", quantile(ws.lat, 0.9), "ms")
	r.setLayer("mutations_per_s", float64(ws.mutations)/ws.elapsed.Seconds(), "1/s")
	r.setLayer("loadgen.late_p90_ms", quantile(ws.late, 0.9), "ms")
	r.note("writer: %d rounds, %d mutations, %d of %d requests failed, live set %d..%d",
		len(ws.lat), ws.mutations, ws.failed, ws.ops, ws.liveLo, ws.liveHi)
}

// checkFinal compares, with the writer stopped, one query over the wire
// against the skyline the index maintains itself, and the live count
// against the writer's.
func (c *churn) checkFinal(name string) error {
	ctx := context.Background()
	resp, err := c.e.cl.Query(ctx, name, &serve.QueryRequest{Algorithm: "hybrid"})
	if err != nil {
		return fmt.Errorf("final query: %w", err)
	}
	snap := c.ix.Snapshot()
	want := make(map[uint64][]float64, snap.Len())
	for i := 0; i < snap.Len(); i++ {
		want[uint64(snap.ID(i))] = snap.Row(i)
	}
	switch {
	case len(resp.IDs) != len(want) || len(resp.Values) != len(resp.IDs):
		c.r.mismatch("stream-churn final query: %d ids and %d value rows, index skyline has %d", len(resp.IDs), len(resp.Values), len(want))
	default:
		for i, id := range resp.IDs {
			row, ok := want[id]
			if !ok {
				c.r.mismatch("stream-churn final query: id %d is not in the index skyline", id)
				break
			}
			for j := range row {
				if resp.Values[i][j] != row[j] {
					c.r.mismatch("stream-churn final query: id %d value %d is %v, want %v", id, j, resp.Values[i][j], row[j])
					break
				}
			}
		}
	}
	info, err := c.e.cl.Info(ctx, name)
	if err != nil {
		return fmt.Errorf("final info: %w", err)
	}
	if n := c.ix.Len(); n != len(c.live) || info.N != len(c.live) {
		c.r.mismatch("stream-churn: index holds %d points and the server reports %d, writer expects %d", n, info.N, len(c.live))
	}
	c.r.note("stream-churn: final query of %d points matches the index skyline; live set %d", len(resp.IDs), len(c.live))
	return nil
}

func randPoint(rng *rand.Rand) []float64 {
	p := make([]float64, churnD)
	for j := range p {
		p[j] = rng.Float64()
	}
	return p
}

func durability(ix *stream.SkylineIndex) skybench.DurabilityStats {
	st, _ := ix.DurabilityStats()
	return st
}

// dirPoll samples the sizes of a directory's files until finish, to
// measure how many bytes were written there even when files are
// rewritten or deleted in between.
type dirPoll struct {
	stop, done chan struct{}
	first, top map[string]int64
}

func pollDir(dir string, every time.Duration) *dirPoll {
	p := &dirPoll{stop: make(chan struct{}), done: make(chan struct{}), first: dirSizes(dir), top: map[string]int64{}}
	go func() {
		defer close(p.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			for name, n := range dirSizes(dir) {
				p.top[name] = max(p.top[name], n)
			}
			select {
			case <-p.stop:
				return
			case <-t.C:
			}
		}
	}()
	return p
}

// finish stops the sampling and returns the bytes added across files.
func (p *dirPoll) finish() int64 {
	close(p.stop)
	<-p.done
	var grown int64
	for name, n := range p.top {
		if d := n - p.first[name]; d > 0 {
			grown += d
		}
	}
	return grown
}

func dirSizes(dir string) map[string]int64 {
	out := map[string]int64{}
	ents, _ := os.ReadDir(dir) // a failed read samples nothing this tick
	for _, ent := range ents {
		if info, err := ent.Info(); err == nil {
			out[ent.Name()] = info.Size()
		}
	}
	return out
}
