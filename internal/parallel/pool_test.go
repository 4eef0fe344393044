package parallel

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cellmatch/internal/compose"
	"cellmatch/internal/workload"
)

func poolTestSystem(t *testing.T) *compose.System {
	t.Helper()
	sys, err := compose.NewSystem(workload.SignatureDictionary(), compose.Config{CaseFold: true})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func poolTestTraffic(t *testing.T, n int, seed int64) []byte {
	t.Helper()
	data, _, err := workload.Traffic(workload.TrafficConfig{
		Bytes: n, MatchEvery: 4 << 10, Dictionary: workload.SignatureDictionary(), Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// A pool-executed scan must be byte-identical to the sequential and
// ad-hoc-goroutine scans for every chunk size.
func TestPoolScanEquivalence(t *testing.T) {
	sys := poolTestSystem(t)
	data := poolTestTraffic(t, 1<<18, 11)
	want, err := Scan(sys, data, Options{Workers: 1, ChunkBytes: len(data)})
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(4)
	defer pool.Close()
	for _, chunk := range []int{1 << 10, 7 << 10, 64 << 10, 1 << 20} {
		got, err := Scan(sys, data, Options{ChunkBytes: chunk, Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("chunk %d: pool scan diverged: %d vs %d matches", chunk, len(got), len(want))
		}
	}
}

// Many goroutines sharing one pool must each get correct results — the
// server's steady state.
func TestPoolConcurrentScans(t *testing.T) {
	sys := poolTestSystem(t)
	pool := NewPool(3)
	defer pool.Close()
	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			data := poolTestTraffic(t, 96<<10, int64(100+c))
			want, err := Scan(sys, data, Options{Workers: 1, ChunkBytes: len(data)})
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < 4; i++ {
				got, err := Scan(sys, data, Options{ChunkBytes: 8 << 10, Pool: pool})
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(got, want) {
					errs <- fmt.Errorf("client %d iter %d: diverged", c, i)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// Jobs that themselves open and wait on a Group of the same pool must
// complete: Wait runs its group's unstarted jobs itself, so a
// fully-busy worker set cannot deadlock on nested submissions.
func TestPoolNestedRunNoDeadlock(t *testing.T) {
	pool := NewPool(2)
	defer pool.Close()
	donec := make(chan struct{})
	go func() {
		defer close(donec)
		var leafs atomic.Int64
		outer := pool.Group()
		for i := 0; i < 8; i++ {
			outer.Go(func() {
				inner := pool.Group()
				for j := 0; j < 4; j++ {
					inner.Go(func() { leafs.Add(1) })
				}
				inner.Wait()
			})
		}
		outer.Wait()
		if got := leafs.Load(); got != 32 {
			t.Errorf("ran %d leaf jobs, want 32", got)
		}
	}()
	select {
	case <-donec:
	case <-time.After(30 * time.Second):
		t.Fatal("nested Group deadlocked")
	}
}

// A closed pool must still complete scans (inline), never deadlock.
func TestPoolClosedRunsInline(t *testing.T) {
	sys := poolTestSystem(t)
	data := poolTestTraffic(t, 32<<10, 5)
	want, err := Scan(sys, data, Options{Workers: 1, ChunkBytes: len(data)})
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(2)
	pool.Close()
	got, err := Scan(sys, data, Options{ChunkBytes: 4 << 10, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("closed-pool scan diverged")
	}
}

// ScanReader through a pool: identical to the buffered scan.
func TestPoolScanReader(t *testing.T) {
	sys := poolTestSystem(t)
	data := poolTestTraffic(t, 300<<10, 7)
	want, err := Scan(sys, data, Options{Workers: 1, ChunkBytes: len(data)})
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(4)
	defer pool.Close()
	got, err := ScanReader(sys, bytes.NewReader(data), Options{Workers: 4, ChunkBytes: 16 << 10, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("pool ScanReader diverged: %d vs %d", len(got), len(want))
	}
}

func TestPoolWorkers(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	if got := p.Workers(); got != 3 {
		t.Fatalf("Workers() = %d", got)
	}
}

// A Group stays open until Wait, however often its pending jobs drain
// to zero in between: a scan whose chunks arrive one at a time submits
// the next chunk after the previous one has finished. On a nil pool
// every job runs inline, before Go returns.
func TestGroupSubmitsAcrossDrains(t *testing.T) {
	pool := NewPool(2)
	defer pool.Close()
	for _, p := range []*Pool{pool, nil} {
		g := p.Group()
		var ran atomic.Int64
		for i := 0; i < 5; i++ {
			finished := make(chan struct{})
			g.Go(func() {
				ran.Add(1)
				close(finished)
			})
			<-finished
			select {
			case <-g.done:
				t.Fatalf("pool %v: group closed after job %d, before Wait", p != nil, i)
			default:
			}
		}
		g.Wait()
		if got := ran.Load(); got != 5 {
			t.Fatalf("pool %v: ran %d jobs, want 5", p != nil, got)
		}
	}
}

// A payload of one job runs on the caller even when a Pool is set:
// handing a lone job to a worker only races the caller's Wait for it.
// A multi-chunk payload still goes to the pool. With the pool's only
// worker parked, every token a scan hands the pool stays queued, so
// the queue length shows which path a scan took.
func TestGroupOneJobInline(t *testing.T) {
	pool := NewPool(1)
	defer pool.Close()
	o := Options{Pool: pool}
	for _, jobs := range []int{0, 1} {
		if g := o.group(jobs); g.p != nil {
			t.Fatalf("group(%d) submits to the pool", jobs)
		}
	}
	if g := o.group(2); g.p != pool {
		t.Fatal("group(2) bypasses the pool")
	}

	release, parked := make(chan struct{}), make(chan struct{})
	hold := pool.Group()
	hold.Go(func() { close(parked); <-release })
	<-parked
	defer func() { close(release); hold.Wait() }()

	sys := poolTestSystem(t)
	opts := Options{Pool: pool, ChunkBytes: 4 << 10}
	small := poolTestTraffic(t, 3000, 1)
	got, err := Scan(sys, small, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertSameMatches(t, sequential(t, sys, small), got)
	data, got, err := ScanArriving(sys, bytes.NewReader(small), len(small), nil, opts)
	if err != nil || !bytes.Equal(data, small) {
		t.Fatalf("ScanArriving: %v", err)
	}
	assertSameMatches(t, sequential(t, sys, small), got)
	if n := len(pool.jobs); n != 0 {
		t.Fatalf("one-chunk scans queued %d jobs on the pool", n)
	}

	big := poolTestTraffic(t, 3*opts.ChunkBytes, 2)
	got, err = Scan(sys, big, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertSameMatches(t, sequential(t, sys, big), got)
	if len(pool.jobs) == 0 {
		t.Fatal("a three-chunk scan handed the pool nothing")
	}
}
