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

// ScanMany's per-payload results must match independent Scans, across
// payload sizes spanning sub-chunk to multi-chunk, with and without a
// pool.
func TestScanManyEquivalence(t *testing.T) {
	sys := poolTestSystem(t)
	payloads := [][]byte{
		poolTestTraffic(t, 128, 1),
		{},
		poolTestTraffic(t, 5000, 2),
		[]byte("no hits here at all"),
		poolTestTraffic(t, 150<<10, 3),
	}
	want := make([][]int, len(payloads))
	for i, p := range payloads {
		m, err := Scan(sys, p, Options{Workers: 1, ChunkBytes: 64 << 10})
		if err != nil {
			t.Fatal(err)
		}
		for _, hit := range m {
			want[i] = append(want[i], int(hit.Pattern)<<32|hit.End)
		}
	}
	pool := NewPool(4)
	defer pool.Close()
	for name, opts := range map[string]Options{
		"adhoc": {Workers: 4, ChunkBytes: 8 << 10},
		"pool":  {ChunkBytes: 8 << 10, Pool: pool},
		"seq":   {Workers: 1, ChunkBytes: 3000},
	} {
		got, err := ScanMany(sys, payloads, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(payloads) {
			t.Fatalf("%s: %d results for %d payloads", name, len(got), len(payloads))
		}
		for i, ms := range got {
			var keys []int
			for _, hit := range ms {
				keys = append(keys, int(hit.Pattern)<<32|hit.End)
			}
			if !reflect.DeepEqual(keys, want[i]) {
				t.Fatalf("%s: payload %d diverged: %d vs %d matches", name, i, len(keys), len(want[i]))
			}
		}
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
