package parallel

import (
	"runtime"
	"sync"
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
// more jobs.
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

// Close stops the workers after the queue drains. Jobs submitted via
// Run after Close run inline on the submitting goroutine, so a racing
// scan still completes correctly.
func (p *Pool) Close() {
	p.once.Do(func() { close(p.jobs) })
	p.wg.Wait()
}

// Run executes every task and returns when all have completed. Tasks
// are enqueued to the pool workers; when the queue is full (or the
// pool is closed) the submitting goroutine runs the task itself, so
// Run never blocks on submission and overload degrades to inline
// scanning instead of queue collapse. While waiting, the submitting
// goroutine help-executes queued jobs (its own or other callers'), so
// nested Run calls from inside pool jobs make progress instead of
// deadlocking the fixed worker set.
func (p *Pool) Run(tasks []func()) {
	if len(tasks) == 0 {
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(tasks))
	for _, t := range tasks {
		t := t
		wrapped := func() {
			defer wg.Done()
			t()
		}
		if !p.trySubmit(wrapped) {
			wrapped()
		}
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for {
		select {
		case <-done:
			return
		case job, ok := <-p.jobs:
			if !ok {
				// Pool closed and queue empty: the remaining tasks are
				// running on workers draining out; just wait.
				<-done
				return
			}
			job()
		}
	}
}

// trySubmit enqueues without blocking; false means the caller must run
// the job inline (queue full or pool closed).
func (p *Pool) trySubmit(job func()) (ok bool) {
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
