package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/runner"
	"repro/internal/serve"
	"repro/internal/spec"
)

// hotSpec is one spec of the HTTP probe's hot set: the request body a
// client posts and the same document decoded without normalization.
type hotSpec struct {
	name string
	body []byte
	raw  spec.RunSpec
}

// hotBodies is the HTTP probe's hot set. Every entry costs at least 0.1 ms
// to serve from cache, so rendering rather than scheduling dominates a
// request; the cheapest here took about 0.2 ms on the development VM.
// Single tables and the default jobstream (about 25 us) and selector
// and format pairs under about 0.15 ms (group:paper as text,
// group:ablation, quick as csv) stay out.
var hotBodies = []struct{ name, body string }{
	{"all.text", `{"kind":"experiments","experiments":"all","quick":true}`},
	{"all.csv", `{"kind":"experiments","experiments":"all","quick":true,"format":"csv"}`},
	{"all.json", `{"kind":"experiments","experiments":"all","quick":true,"format":"json"}`},
	{"quick.text", `{"kind":"experiments","experiments":"quick","quick":true}`},
	{"quick.json", `{"kind":"experiments","experiments":"quick","quick":true,"format":"json"}`},
	{"paper.csv", `{"kind":"experiments","experiments":"group:paper","quick":true,"format":"csv"}`},
	{"paper.json", `{"kind":"experiments","experiments":"group:paper","quick":true,"format":"json"}`},
	{"extension.text", `{"kind":"experiments","experiments":"group:extension","quick":true}`},
	{"extension.json", `{"kind":"experiments","experiments":"group:extension","quick":true,"format":"json"}`},
}

func hotSet() ([]hotSpec, error) {
	out := make([]hotSpec, len(hotBodies))
	for i, h := range hotBodies {
		out[i] = hotSpec{name: h.name, body: []byte(h.body)}
		if err := json.Unmarshal(out[i].body, &out[i].raw); err != nil {
			return nil, fmt.Errorf("hot spec %s: %w", h.name, err)
		}
	}
	return out, nil
}

// serveConns is the closed loop's client count: one keep-alive
// connection per worker, never more workers than CPUs.
func serveConns() int { return min(2, runtime.NumCPU()) }

// opHeader carries a traced request's op and parent span to the server
// side of the same process.
const opHeader = "X-Perfbench-Op"

// warmServer is an in-process hetsim server on loopback with its hot set
// cached and the expected bytes of every hot spec.
type warmServer struct {
	ex       *spec.Executor
	srv      *http.Server
	done     chan error
	url      string
	client   *http.Client
	hot      []hotSpec
	expected [][]byte
}

// startWarmServer builds the executor and server as `hetsim -serve`
// does and fills the cache by posting every hot spec once. Each body
// becomes the bytes the closed loop expects; it must equal a direct
// Executor.Run of the same spec and hash to the recorded digest, and
// failed counts the hot specs for which either check fails.
func startWarmServer(ctx context.Context, tr *tracer) (s *warmServer, failed int, err error) {
	gold, err := loadGolden()
	if err != nil {
		return nil, 0, err
	}
	hot, err := hotSet()
	if err != nil {
		return nil, 0, err
	}
	ex, err := spec.NewExecutor(spec.ExecutorOptions{Pool: runner.NewPool(0)})
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	handler := serve.New(ex).Handler()
	if tr != nil {
		inner := handler
		handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			var op, parent int
			fmt.Sscanf(r.Header.Get(opHeader), "%d/%d", &op, &parent)
			id := tr.begin(op, parent, "serve.handler")
			inner.ServeHTTP(w, r)
			tr.end(id)
		})
	}
	s = &warmServer{
		ex:   ex,
		srv:  &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second},
		done: make(chan error, 1),
		url:  "http://" + ln.Addr().String() + "/run",
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: serveConns(),
			MaxConnsPerHost:     serveConns(),
			DisableCompression:  true,
		}},
		hot: hot,
	}
	go func() { s.done <- s.srv.Serve(ln) }()
	for _, h := range hot {
		body, err := s.post(h.body, "")
		if err != nil {
			s.stop()
			return nil, 0, fmt.Errorf("fill %s: %w", h.name, err)
		}
		var direct bytes.Buffer
		if err := ex.Run(ctx, h.raw, &direct); err != nil {
			s.stop()
			return nil, 0, fmt.Errorf("direct %s: %w", h.name, err)
		}
		if !bytes.Equal(body, direct.Bytes()) {
			fmt.Fprintf(os.Stderr, "perfbench: %s: /run bytes differ from a direct Executor.Run\n", h.name)
			failed++
		} else if got := digest(body); got != gold[hotSetKey].Hot[h.name] {
			fmt.Fprintf(os.Stderr, "perfbench: %s: output digest %s, recorded %s\n", h.name, got, gold[hotSetKey].Hot[h.name])
			failed++
		}
		s.expected = append(s.expected, direct.Bytes())
	}
	return s, failed, nil
}

// post sends one /run request and returns the body of a 200 reply.
func (s *warmServer) post(body []byte, op string) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, s.url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if op != "" {
		req.Header.Set(opHeader, op)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

// stop closes the server and waits for its serve loop to return.
func (s *warmServer) stop() {
	s.client.CloseIdleConnections()
	_ = s.srv.Close() // Close reports only listener errors; Serve's return is checked below
	if err := <-s.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "perfbench: server:", err)
	}
}

// loopResult is one client worker's share of a closed loop.
type loopResult struct {
	latMS       []float64
	failed, ops int
}

// closedLoop runs serveConns workers, each posting the hot set in turn
// (starting at a seed-chosen offset) and waiting for each reply before
// sending the next, until the deadline passes or, with perConn > 0, each
// has sent perConn requests. Every body is compared with the expected
// bytes; a request that errors is not timed.
func (s *warmServer) closedLoop(seed int64, until time.Time, perConn int, tr *tracer) []loopResult {
	conns := serveConns()
	results := make([]loopResult, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := &results[c]
			n := len(s.hot)
			next := int((uint64(seed) + uint64(c*n/conns)) % uint64(n))
			more := func() bool {
				return (until.IsZero() || time.Now().Before(until)) && (perConn == 0 || r.ops < perConn)
			}
			for op := c; more(); op += conns {
				h := next
				next = (next + 1) % n
				id := tr.begin(op, 0, "op")
				var tag string
				if tr != nil {
					tag = strconv.Itoa(op) + "/" + strconv.Itoa(id)
				}
				t0 := time.Now()
				body, err := s.post(s.hot[h].body, tag)
				lat := time.Since(t0)
				tr.end(id)
				r.ops++
				if err != nil {
					r.failed++
					fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", s.hot[h].name, err)
					continue
				}
				if !bytes.Equal(body, s.expected[h]) {
					r.failed++
				}
				r.latMS = append(r.latMS, ms2(lat))
			}
		}(c)
	}
	wg.Wait()
	return results
}

// serveProbeWindow is how long the HTTP probe's timed closed loop runs.
const serveProbeWindow = 2 * time.Second

// probeServe measures the HTTP front-end: an in-process server on
// loopback with the hot set cached, serveWarmPasses untimed passes of it
// on every connection, then a closed loop for serveProbeWindow, and a
// direct Executor.Run of every hot spec for the share HTTP adds.
func probeServe(ctx context.Context, tr *tracer, res *childResult) error {
	s, failed, err := startWarmServer(ctx, tr)
	if err != nil {
		return err
	}
	defer s.stop()
	res.Attempted += len(s.hot)
	res.Failed += failed
	for _, r := range s.closedLoop(0, time.Time{}, serveWarmPasses*len(s.hot), nil) {
		res.Attempted += r.ops
		res.Failed += r.failed
	}
	stats0 := s.ex.CacheStats()
	t0 := time.Now()
	loop := s.closedLoop(0, t0.Add(serveProbeWindow), 0, tr)
	wall := time.Since(t0)
	stats := s.ex.CacheStats()
	var lat []float64
	for _, r := range loop {
		lat = append(lat, r.latMS...)
		res.Attempted += r.ops
		res.Failed += r.failed
	}
	if len(lat) == 0 {
		return fmt.Errorf("HTTP probe: every request returned an error")
	}
	hits, misses := stats.Hits-stats0.Hits, stats.Misses-stats0.Misses
	layers := res.Layers
	layers["serve.memo_hit_ratio"] = ratio(hits, hits+misses)
	layers["serve.p50_ms"] = median(lat)
	layers["serve.p90_ms"] = percentile(lat, 90)
	layers["serve.p99_ms"] = percentile(lat, 99)
	layers["serve.rps"] = float64(len(lat)) / wall.Seconds()
	hit, err := execHits(ctx, tr, s)
	if err != nil {
		return err
	}
	var all []float64
	cheapest := 0
	for i, xs := range hit {
		all = append(all, xs...)
		if median(xs) < median(hit[cheapest]) {
			cheapest = i
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: cheapest hot spec %s served from cache in %.1f us (the hot set was chosen for >= 100 us on the development VM)\n",
		s.hot[cheapest].name, median(hit[cheapest]))
	layers["spec.exec_hit_us"] = median(all)
	layers["serve.http_us"] = median(lat)*1e3 - median(all)
	return nil
}

// serveWarmPasses is how many times each connection posts the hot set in
// the HTTP probe's untimed warm-up loop.
const serveWarmPasses = 20

// execHits times direct Executor.Run calls of the hot set on the warm
// executor, without HTTP, and returns each hot spec's per-call
// microseconds.
func execHits(ctx context.Context, tr *tracer, s *warmServer) ([][]float64, error) {
	const reps = 20
	us := make([][]float64, len(s.hot))
	var out bytes.Buffer
	for rep := 0; rep < reps; rep++ {
		for i, h := range s.hot {
			out.Reset()
			id := tr.begin(probeOp, 0, "spec.exec_hit")
			t0 := time.Now()
			err := s.ex.Run(ctx, h.raw, &out)
			d := time.Since(t0)
			tr.end(id)
			if err != nil {
				return nil, err
			}
			if !bytes.Equal(out.Bytes(), s.expected[i]) {
				return nil, fmt.Errorf("%s: direct run bytes changed", h.name)
			}
			us[i] = append(us[i], float64(d.Nanoseconds())/1e3)
		}
	}
	return us, nil
}
