package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// step is the outcome of one open-loop rate step.
type step struct {
	latMs   []float64 // per request, from its due time; +Inf when it failed
	lateMs  []float64 // how late the generator released each request
	failed  int
	backlog int // requests not done p99Limit after the last one was due
	errs    []string
}

// openLoop sends n requests on a seeded Poisson schedule at rate req/s
// over conns connections, whatever the server's progress: a dispatcher
// releases each request at its due time into a queue that conns workers,
// each holding one keep-alive connection, drain. Latency runs from the
// due time, so time spent queued behind a slow request counts.
func openLoop(url string, pl []payload, rate float64, n, conns int, seed int64) (step, error) {
	rng := rand.New(rand.NewSource(seed))
	due := make([]time.Duration, n)
	at := 0.0
	for i := range due {
		at += rng.ExpFloat64() / rate
		due[i] = time.Duration(at * float64(time.Second))
	}
	pick := make([]int, n)
	for i := range pick {
		pick[i] = rng.Intn(len(pl))
	}

	st := step{latMs: make([]float64, n), lateMs: make([]float64, n)}
	ok := make([]bool, n)
	errs := make([]error, n)
	queue := make(chan int, n) // sized to the number of sends
	var done atomic.Int64
	var wg sync.WaitGroup
	start := time.Now().Add(20 * time.Millisecond)
	for w := 0; w < conns; w++ {
		tr := newTransport()
		c := &http.Client{Transport: tr, Timeout: 30 * time.Second}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer tr.CloseIdleConnections()
			var buf bytes.Buffer
			for i := range queue {
				ok[i], errs[i] = send(c, url, pl[pick[i]], &buf)
				st.latMs[i] = float64(time.Since(start)-due[i]) / 1e6
				done.Add(1)
			}
		}()
	}
	for i := range due {
		time.Sleep(time.Until(start.Add(due[i])))
		st.lateMs[i] = float64(time.Since(start)-due[i]) / 1e6
		queue <- i
	}
	close(queue)
	time.Sleep(time.Until(start.Add(due[n-1] + p99Limit)))
	st.backlog = n - int(done.Load())
	wg.Wait()

	for i := range ok {
		if !ok[i] {
			st.failed++
			st.latMs[i] = math.Inf(1)
			if errs[i] != nil && len(st.errs) < 5 {
				st.errs = append(st.errs, errs[i].Error())
			}
		}
	}
	if st.failed == n {
		return st, fmt.Errorf("every request at %g req/s failed: %v", rate, st.errs)
	}
	return st, nil
}

// tallyInto counts every request of the step as one checked operation.
func (s step) tallyInto(t *tally, what string) {
	for i := range s.latMs {
		t.check(!math.IsInf(s.latMs[i], 1), "%s: request %d failed or its response differs from the direct transform", what, i)
	}
}

func (s step) quantileMs(q float64) float64 { return quantile(s.latMs, q) }

func (s step) lateMsP99() float64 { return quantile(s.lateMs, 0.99) }
