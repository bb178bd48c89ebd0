package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"time"

	"xmtfft/internal/fft"
	"xmtfft/internal/metrics"
	"xmtfft/internal/serve"
)

// Server workload constants: 1D complex64 forward requests of serveN
// points, a p99 limit, at least minStepRequests per rate step so that p99
// has at least ten samples beyond it, and a pool of distinct payloads.
const (
	serveN          = 1024
	p99Limit        = 25 * time.Millisecond
	minStepRequests = 1000
	payloadPool     = 16
)

// ladderRates are the open-loop rates of the traced run's capacity
// search, in req/s.
var ladderRates = []float64{100, 200, 300, 400, 500, 600, 700, 800}

// server is an in-process xmtserve instance on a loopback port, built
// with the defaults cmd/xmtserve uses.
type server struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	done chan error
}

func startServer() (*server, error) {
	srv := serve.New(serve.Config{
		MaxInflight:  256,
		MaxBatch:     32,
		CoalesceWait: 0,
		MaxBodyBytes: 1 << 28,
		RetryAfter:   time.Second,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen on loopback: %w", err)
	}
	s := &server{srv: srv, hs: &http.Server{Handler: srv.Handler()},
		url: "http://" + ln.Addr().String() + "/v1/transform", done: make(chan error, 1)}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// close drains the service, stops the HTTP server and waits for it.
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	err = errors.Join(err, s.hs.Shutdown(ctx))
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// roundTrip sends one request on a fresh connection and reports whether
// the response is correct.
func (s *server) roundTrip(p payload) (bool, error) {
	tr := newTransport()
	defer tr.CloseIdleConnections()
	c := &http.Client{Transport: tr, Timeout: 30 * time.Second}
	var buf bytes.Buffer
	ok, err := send(c, s.url, p, &buf)
	if err != nil {
		return false, fmt.Errorf("first request: %w", err)
	}
	return ok, nil
}

func newTransport() *http.Transport {
	return &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
}

// payload is one request body and the tail its response must end with:
// the "data" member holding the direct fft.CachedPlan transform of the
// request, encoded as the server encodes it. Matching those bytes means
// the response is bit-identical to the direct transform.
type payload struct {
	body []byte
	want []byte
}

// makePayloads generates k request payloads of n points from seed.
func makePayloads(seed int64, k, n int) ([]payload, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x5e17e))
	plan, err := fft.CachedPlan[complex64](n)
	if err != nil {
		return nil, err
	}
	out := make([]payload, k)
	for i := range out {
		x := make([]complex64, n)
		data := make([]float64, 2*n)
		for j := range x {
			re, im := float32(rng.NormFloat64()), float32(rng.NormFloat64())
			x[j] = complex(re, im)
			data[2*j], data[2*j+1] = float64(re), float64(im)
		}
		body, err := json.Marshal(serve.Request{Dims: []int{n}, Dtype: "complex64", Dir: "forward", Data: data})
		if err != nil {
			return nil, err
		}
		if err := plan.Transform(x, fft.Forward); err != nil {
			return nil, err
		}
		enc, err := json.Marshal(interleave(x))
		if err != nil {
			return nil, err
		}
		want := append(append([]byte(`"data":`), enc...), "}\n"...)
		out[i] = payload{body: body, want: want}
	}
	return out, nil
}

func interleave(x []complex64) []float64 {
	out := make([]float64, 2*len(x))
	for i, v := range x {
		out[2*i], out[2*i+1] = float64(real(v)), float64(imag(v))
	}
	return out
}

// send posts one payload and reports whether the reply is a 200 whose
// data is bit-identical to the direct transform. An error means the
// request did not complete.
func send(c *http.Client, url string, p payload, buf *bytes.Buffer) (bool, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(p.body))
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return false, err
	}
	return resp.StatusCode == http.StatusOK && bytes.HasSuffix(buf.Bytes(), p.want), nil
}

// serveConns is the client's connection count: the workloads' rates are
// set for two connections, and no more than nproc are used.
func serveConns() int { return min(2, runtime.NumCPU()) }

// runServe drives the server at the workload's rate. The traced run also
// times the request stages in isolation on the same payloads, reads the
// server's registry and climbs the rate ladder.
func runServe(e *env, w workload, seed int64, budget time.Duration, traced bool, t *tally, rt *runtimeDelta, end, layer metricSet, details map[string]any) error {
	pl, err := makePayloads(seed, payloadPool, serveN)
	if err != nil {
		return err
	}
	// A warm-up second at the workload's rate lets connections, pools and
	// buffers settle; its responses are checked but not timed.
	warm, err := openLoop(e.srv.url, pl, w.rate, int(w.rate), serveConns(), ^seed)
	if err != nil {
		return err
	}
	warm.tallyInto(t, "serve warm-up")
	n := max(minStepRequests, int(w.rate*budget.Seconds()))
	regBefore, err := registryValues(e.srv.srv.Registry())
	if err != nil {
		return err
	}
	rt.begin()
	cpu0 := cpuSeconds()
	st, err := openLoop(e.srv.url, pl, w.rate, n, serveConns(), seed)
	cpuPerReq := (cpuSeconds() - cpu0) / float64(n)
	rt.end()
	if err != nil {
		return err
	}
	st.tallyInto(t, "serve")
	p50, p99 := st.quantileMs(0.5), st.quantileMs(0.99)
	end.set("serve_cpu_ms_per_req", cpuPerReq*1e3, "ms")
	details["serve"] = map[string]any{"rate": w.rate, "requests": n, "conns": serveConns(),
		"p50_ms": finite(p50), "p99_ms": finite(p99), "samples_beyond_p99": n - int(math.Ceil(0.99*float64(n))),
		"late_ms_p99": st.lateMsP99(), "backlog": st.backlog, "errors": st.errs}
	if !traced {
		return nil
	}

	reg, err := registryValues(e.srv.srv.Registry())
	if err != nil {
		return err
	}
	for k, v := range regBefore {
		reg[k] -= v // the measured step alone
	}
	requests := reg["xmtserve_requests_total"]
	layer.set("serve.plan_passes", reg["xmtserve_plan_passes_total"], "count")
	layer.set("serve.coalesce_rate", ratio(reg["xmtserve_requests_coalesced_total"], requests), "ratio")
	layer.set("serve.batch_size_mean", ratio(reg["xmtserve_batch_size_sum"], reg["xmtserve_batch_size_count"]), "requests")
	layer.set("serve.rejected_429", reg["xmtserve_requests_rejected_total"], "count")
	layer.set("serve.p50_ms", p50, "ms")
	layer.set("serve.p99_ms", p99, "ms")
	layer.set("gen.late_ms_p99", st.lateMsP99(), "ms")
	layer.set("gen.backlog", float64(st.backlog), "count")

	dec, comp, enc, err := stageTimes(pl)
	if err != nil {
		return err
	}
	layer.set("serve.decode_us", dec*1e6, "us")
	layer.set("serve.compute_us", comp*1e6, "us")
	layer.set("serve.encode_us", enc*1e6, "us")
	layer.set("serve.residual_ms", p50-(dec+comp+enc)*1e3, "ms")

	maxRPS, steps := 0.0, []map[string]any{}
	for i, rate := range ladderRates {
		st, err := openLoop(e.srv.url, pl, rate, minStepRequests, serveConns(), seed+int64(i)+1)
		if err != nil {
			return err
		}
		st.tallyInto(t, fmt.Sprintf("serve ladder %g req/s", rate))
		p99 := st.quantileMs(0.99)
		steps = append(steps, map[string]any{"rate": rate, "p99_ms": finite(p99), "failed": st.failed, "backlog": st.backlog})
		if p99 > float64(p99Limit)/1e6 || st.failed > 0 || st.backlog > 0 {
			break
		}
		maxRPS = rate
	}
	layer.set("serve.max_rps", maxRPS, "1/s")
	details["serve_ladder"] = steps
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// registryValues reads the server's metric registry through its
// OpenMetrics exposition, summing each sample name over its labels.
func registryValues(reg *metrics.Registry) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := reg.WriteOpenMetrics(&buf); err != nil {
		return nil, fmt.Errorf("write server metrics: %w", err)
	}
	exp, err := metrics.Parse(&buf)
	if err != nil {
		return nil, fmt.Errorf("parse server metrics: %w", err)
	}
	out := map[string]float64{}
	for _, f := range exp.Families {
		for _, s := range f.Samples {
			if _, bucket := s.Labels["le"]; !bucket {
				out[s.Name] += s.Value
			}
		}
	}
	return out, nil
}

// stageTimes times the three stages of a request in isolation on the
// workload's payloads: decode (serve.DecodeRequest), compute (a direct
// cached-plan transform) and encode (the response as the server writes
// it). Each is the median over several calls, in seconds.
func stageTimes(pl []payload) (dec, comp, enc float64, err error) {
	plan, err := fft.CachedPlan[complex64](serveN)
	if err != nil {
		return 0, 0, 0, err
	}
	var ds, cs, es []float64
	x := make([]complex64, serveN)
	for rep := 0; rep < 4; rep++ {
		for _, p := range pl {
			var q *serve.Request
			d, err := elapsed(func() (err error) {
				q, err = serve.DecodeRequest(bytes.NewReader(p.body))
				return err
			})
			if err != nil {
				return 0, 0, 0, fmt.Errorf("decode payload: %w", err)
			}
			for i := range x {
				x[i] = complex(float32(q.Data[2*i]), float32(q.Data[2*i+1]))
			}
			c, err := elapsed(func() error { return plan.Transform(x, fft.Forward) })
			if err != nil {
				return 0, 0, 0, err
			}
			resp := &serve.Response{Dims: q.Dims, Dtype: q.Dtype, Dir: q.Dir, Data: interleave(x)}
			en, err := elapsed(func() error { return json.NewEncoder(io.Discard).Encode(resp) })
			if err != nil {
				return 0, 0, 0, fmt.Errorf("encode response: %w", err)
			}
			ds, cs, es = append(ds, d), append(cs, c), append(es, en)
		}
	}
	return median(ds), median(cs), median(es), nil
}
