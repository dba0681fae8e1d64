package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"skybench"
	"skybench/serve"
	"skybench/serve/client"
)

// env is one in-process skyserved: a serve.Server over a fresh Store on
// a loopback listener, and a client that reaches it through real TCP
// connections exactly as a remote user would.
type env struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
	cl     *client.Client
}

// startEnv listens on a loopback port and serves a fresh Store. conns
// caps the client's connections to the server; timed wraps the client
// transport so each request's time to headers and body bytes are
// recorded (the traced run).
func startEnv(conns int, timed bool) (*env, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	srv := serve.New(skybench.NewStore(0), serve.Options{})
	e := &env{
		srv:    srv,
		hs:     &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second},
		served: make(chan error, 1),
	}
	go func() { e.served <- e.hs.Serve(ln) }()
	var rt http.RoundTripper = &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	if timed {
		rt = &timingTransport{base: rt}
	}
	e.cl = client.NewWithHTTPClient("http://"+ln.Addr().String(), &http.Client{Transport: rt})
	return e, nil
}

// close shuts the server down in skyserved's order (drain, shutdown,
// close the Store, which checkpoints durable collections) and waits
// for the serving goroutine to exit.
func (e *env) close() error {
	e.cl.Close()
	e.srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := e.hs.Shutdown(ctx)
	e.srv.Close()
	if serr := <-e.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// reqTiming is what the timing transport learns about one request.
type reqTiming struct {
	sent, headers time.Time
	bytes         int64
}

type timingKey struct{}

// withTiming returns a context under which the timing transport fills t.
func withTiming(ctx context.Context, t *reqTiming) context.Context {
	return context.WithValue(ctx, timingKey{}, t)
}

// timingTransport records, for requests whose context carries a
// reqTiming, when the request was handed to the transport, when its
// response headers arrived, and how many body bytes the client read.
type timingTransport struct{ base http.RoundTripper }

func (t *timingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	tm, _ := r.Context().Value(timingKey{}).(*reqTiming)
	if tm == nil {
		return t.base.RoundTrip(r)
	}
	tm.sent = time.Now()
	resp, err := t.base.RoundTrip(r)
	tm.headers = time.Now()
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &tm.bytes}
	}
	return resp, err
}

func (t *timingTransport) CloseIdleConnections() {
	if c, ok := t.base.(interface{ CloseIdleConnections() }); ok {
		c.CloseIdleConnections()
	}
}

type countingBody struct {
	io.ReadCloser
	n *int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	*b.n += int64(n)
	return n, err
}

// span is one timed call at a layer boundary. Spans of one request
// share Req; Parent is the ID of the span that caused this one (0 for a
// root). Start and End are nanoseconds since the run began. A Replay
// span was timed by repeating its parent's inner call in process right
// after the request (the server's own Store call cannot be timed from
// outside), so it lies outside its parent's interval and counts against
// the parent's self time by duration.
type span struct {
	Req    uint64 `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Replay bool   `json:"replay,omitempty"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a span and returns its ID.
func (t *tracer) add(req uint64, parent int, name string, start, end time.Time) int {
	return t.addSpan(span{Req: req, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
}

// addReplay records a Replay span (see span) and returns its ID.
func (t *tracer) addReplay(req uint64, parent int, name string, start, end time.Time) int {
	return t.addSpan(span{Req: req, Parent: parent, Name: name, Replay: true,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
}

func (t *tracer) addSpan(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// selfTimes returns, per span name, the summed self time in ms and the
// number of spans: each span's duration minus the part of its interval
// its children cover (Replay children by their duration).
func (t *tracer) selfTimes() (selfMs map[string]float64, count map[string]int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	selfMs, count = make(map[string]float64), make(map[string]int)
	for _, s := range t.spans {
		covered := coverage(s, kids[s.ID])
		selfMs[s.Name] += float64(s.End-s.Start-covered) / 1e6
		count[s.Name]++
	}
	return selfMs, count
}

// coverage is the length of the union of the children's intervals,
// clipped to the parent's.
func coverage(parent span, children []span) int64 {
	if len(children) == 0 {
		return 0
	}
	var replayed int64
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		if c.Replay {
			replayed += c.End - c.Start
			continue
		}
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	return replayed + total + curHi - curLo
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks, 0 for no samples (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
