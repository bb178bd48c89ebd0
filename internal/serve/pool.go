package serve

// Per-size worker pools with request coalescing. Every (size, dtype,
// direction, normalization) key owns one worker goroutine fed by a
// buffered channel. The worker blocks for the first job, then gathers
// more of the same key — greedily, or for a short CoalesceWait window —
// up to MaxBatch, packs them into one contiguous buffer and runs a
// single fft.BatchPlan pass (stride 1, dist n). BatchPlan applies the
// cached 1D plan row by row, the exact code path a lone request takes,
// so coalesced outputs are bit-identical to serial execution while the
// plan dispatch overhead (and the per-pass twiddle-table walk locality)
// is paid once per batch instead of once per request — the
// many-same-size-requests shape the model-based 2D-DFT routing work
// optimizes for.

import (
	"sync"
	"time"

	"xmtfft/internal/fft"
)

// poolKey identifies one coalescible stream of 1D work. The element
// type is carried by the poolSet's type parameter, not the key.
type poolKey struct {
	n    int
	dir  fft.Direction
	norm fft.Normalization
}

// job is one request's stay in a pool: data is transformed in place,
// batched reports the size of the pass it rode in, started when that
// pass began, err any transform failure. done is closed when the job
// is complete.
type job[C fft.Complex] struct {
	data    []C
	batched int
	started time.Time
	err     error
	done    chan struct{}
}

// poolSet manages the pools of one element type.
type poolSet[C fft.Complex] struct {
	srv *Server

	mu    sync.Mutex
	pools map[poolKey]*pool[C]
}

func newPoolSet[C fft.Complex](s *Server) *poolSet[C] {
	return &poolSet[C]{srv: s, pools: make(map[poolKey]*pool[C])}
}

// submit queues data on the key's pool (creating it on first use) and
// waits for the transform to complete. It returns the batch size the
// job executed in and how long it waited for its pass to begin.
func (ps *poolSet[C]) submit(key poolKey, data []C) (batched int, queued time.Duration, err error) {
	ps.mu.Lock()
	p := ps.pools[key]
	if p == nil {
		p, err = newPool[C](ps.srv, key)
		if err != nil {
			ps.mu.Unlock()
			return 0, 0, err
		}
		ps.pools[key] = p
		ps.srv.met.pools.Set(float64(ps.srv.poolCount.Add(1)))
	}
	ps.mu.Unlock()

	j := &job[C]{data: data, done: make(chan struct{})}
	enqueued := time.Now()
	p.ch <- j
	<-j.done
	return j.batched, j.started.Sub(enqueued), j.err
}

// close stops every pool worker and waits for them to exit. The server
// only calls it after the last in-flight request drained, so the
// channels are empty.
func (ps *poolSet[C]) close() {
	ps.mu.Lock()
	pools := make([]*pool[C], 0, len(ps.pools))
	for _, p := range ps.pools {
		pools = append(pools, p)
	}
	ps.mu.Unlock()
	for _, p := range pools {
		close(p.quit)
	}
	for _, p := range pools {
		<-p.stopped
	}
}

// pool is one key's worker: a private cached-plan clone, a reusable
// batch wrapper around it, and the job queue.
type pool[C fft.Complex] struct {
	srv     *Server
	key     poolKey
	plan    *fft.Plan[C]
	bp      *fft.BatchPlan[C]
	buf     []C // contiguous pack buffer, grown to maxBatch*n
	ch      chan *job[C]
	quit    chan struct{}
	stopped chan struct{}
}

// newPool builds the key's plan (from the shared cache; the clone's
// scratch is private to the worker) and starts the worker goroutine.
func newPool[C fft.Complex](s *Server, key poolKey) (*pool[C], error) {
	plan, err := fft.CachedPlan[C](key.n, fft.WithNorm(key.norm))
	if err != nil {
		return nil, err
	}
	bp, err := fft.NewBatchPlanOf(plan, 1, 1, key.n)
	if err != nil {
		return nil, err
	}
	p := &pool[C]{
		srv:  s,
		key:  key,
		plan: plan,
		bp:   bp,
		// Capacity MaxInflight: admission control bounds the jobs that
		// can exist at once, so a send never blocks a handler forever.
		ch:      make(chan *job[C], s.cfg.MaxInflight),
		quit:    make(chan struct{}),
		stopped: make(chan struct{}),
	}
	go p.run()
	return p, nil
}

// run is the worker loop: wait for work, coalesce, execute.
func (p *pool[C]) run() {
	defer close(p.stopped)
	batch := make([]*job[C], 0, p.srv.cfg.MaxBatch)
	for {
		select {
		case j := <-p.ch:
			batch = p.gather(append(batch[:0], j))
			p.execute(batch)
		case <-p.quit:
			// Drain-then-exit: Shutdown closes quit only after handlers
			// drained, so this loop normally finds the channel empty.
			for {
				select {
				case j := <-p.ch:
					p.execute([]*job[C]{j})
				default:
					return
				}
			}
		}
	}
}

// gather grows batch up to MaxBatch: greedily from whatever is already
// queued, then — if a coalesce window is configured — by waiting it out
// for stragglers. The window prices latency against batching: it only
// delays requests that already have company forming, never an idle pool.
func (p *pool[C]) gather(batch []*job[C]) []*job[C] {
	max := p.srv.cfg.MaxBatch
	for len(batch) < max {
		select {
		case j := <-p.ch:
			batch = append(batch, j)
			continue
		default:
		}
		break
	}
	if wait := p.srv.cfg.CoalesceWait; wait > 0 && len(batch) < max {
		t := time.NewTimer(wait)
		defer t.Stop()
		for len(batch) < max {
			select {
			case j := <-p.ch:
				batch = append(batch, j)
			case <-t.C:
				return batch
			case <-p.quit:
				return batch
			}
		}
	}
	return batch
}

// execute runs the batch as one plan pass and completes every job.
func (p *pool[C]) execute(batch []*job[C]) {
	started := time.Now()
	n := p.key.n
	var err error
	if len(batch) == 1 {
		err = p.plan.Transform(batch[0].data, p.key.dir)
	} else {
		need := n * len(batch)
		if cap(p.buf) < need {
			p.buf = make([]C, need)
		}
		buf := p.buf[:need]
		for i, j := range batch {
			copy(buf[i*n:(i+1)*n], j.data)
		}
		p.bp.HowMany = len(batch)
		p.bp.Stride, p.bp.Dist = 1, n
		err = p.bp.Transform(buf, p.key.dir)
		if err == nil {
			for i, j := range batch {
				copy(j.data, buf[i*n:(i+1)*n])
			}
		}
	}
	m := p.srv.met
	m.planPasses.Inc()
	m.codeletLeaves.Set(float64(fft.CodeletLeafCalls()))
	m.batchSize.Observe(float64(len(batch)))
	if len(batch) > 1 {
		m.coalesced.Add(uint64(len(batch)))
	}
	for _, j := range batch {
		j.batched = len(batch)
		j.started = started
		j.err = err
		close(j.done)
	}
}
