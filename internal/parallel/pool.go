package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a persistent worker pool for chunk-scan jobs: the shared-pool
// mode of the engine. Where Scan spawns goroutines per call — fine for
// a CLI, wasteful for a server handling thousands of small requests —
// a Pool keeps Workers goroutines alive for the process lifetime and
// every scan submits its chunk jobs to them, so concurrent requests
// coalesce onto one fixed set of scanning threads (the host analog of
// the paper's fixed SPE allotment: the tiles are provisioned once and
// traffic is fed to them, not the other way around).
//
// A Pool is safe for concurrent use. Submitting callers never block on
// a saturated pool: jobs that cannot be enqueued immediately run
// inline on the submitting goroutine, which bounds latency under
// overload and makes deadlock impossible even if a job itself submits
// more jobs (see Group). A nil *Pool runs every job inline.
type Pool struct {
	jobs    chan func()
	workers int
	wg      sync.WaitGroup
	once    sync.Once
}

// NewPool starts a pool of workers goroutines (<=0 means GOMAXPROCS).
// Call Close to release them.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{
		jobs:    make(chan func(), workers*4),
		workers: workers,
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer p.wg.Done()
			for job := range p.jobs {
				job()
			}
		}()
	}
	return p
}

// Workers reports the pool size.
func (p *Pool) Workers() int { return p.workers }

// Close stops the workers after the queue drains. Jobs submitted after
// Close run inline on the submitting goroutine, so a racing scan still
// completes correctly.
func (p *Pool) Close() {
	p.once.Do(func() { close(p.jobs) })
	p.wg.Wait()
}

// Group starts a set of jobs on the pool: the unit one scan submits
// its chunk jobs through, one job at a time as each chunk's input
// becomes ready.
func (p *Pool) Group() *Group {
	g := &Group{p: p, done: make(chan struct{})}
	g.pending.Store(1) // the submitter's hold, released by Wait
	g.token = func() { g.runNext() }
	return g
}

// Group is one scan's jobs on a Pool. Go queues a job on the group and
// hands the pool a token that runs the group's oldest unstarted job;
// when the pool's queue is full (or the pool is closed or nil) the
// submitting goroutine runs the job itself, so Go never blocks on
// submission and overload degrades to inline scanning instead of queue
// collapse. Wait runs the group's own unstarted jobs on the submitting
// goroutine, then waits for the started ones. It never runs another
// group's jobs: a request's latency is its own work, not whatever other
// requests queued ahead of it. Groups opened inside pool jobs cannot
// deadlock the fixed worker set, since a waiting goroutine never blocks
// while its group has a job nobody has started. A Group has one
// submitting goroutine; its jobs may run on any.
type Group struct {
	p     *Pool
	own   bool   // p serves this group alone; Wait closes it
	token func() // runNext, as the pool runs it

	mu     sync.Mutex
	queued []func() // submitted and not yet started, oldest first

	pending atomic.Int64  // jobs not yet finished, plus the submitter's hold
	done    chan struct{} // closed when pending reaches zero
}

// Go submits one job.
func (g *Group) Go(job func()) {
	g.pending.Add(1)
	g.mu.Lock()
	g.queued = append(g.queued, job)
	g.mu.Unlock()
	if !g.p.trySubmit(g.token) {
		g.runNext()
	}
}

// runNext runs the group's oldest unstarted job; false when none was
// left (a token whose job the submitter already ran).
func (g *Group) runNext() bool {
	g.mu.Lock()
	if len(g.queued) == 0 {
		g.mu.Unlock()
		return false
	}
	job := g.queued[0]
	g.queued = g.queued[1:]
	g.mu.Unlock()
	job()
	g.release()
	return true
}

func (g *Group) release() {
	if g.pending.Add(-1) == 0 {
		close(g.done)
	}
}

// Wait releases the submitter's hold, runs the group's unstarted jobs,
// and returns when every job submitted through Go has finished. No job
// may be submitted after Wait.
func (g *Group) Wait() {
	g.release()
	for g.runNext() {
	}
	<-g.done
	if g.own {
		g.p.Close()
	}
}

// trySubmit enqueues without blocking; false means the caller must run
// the job inline (no pool, queue full, or pool closed).
func (p *Pool) trySubmit(job func()) (ok bool) {
	if p == nil {
		return false
	}
	defer func() {
		if recover() != nil { // send on closed channel: pool shut down
			ok = false
		}
	}()
	select {
	case p.jobs <- job:
		return true
	default:
		return false
	}
}
