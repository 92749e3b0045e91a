package experiments

import (
	"runtime"
	"sync"

	"approxnoc/internal/noc"
)

// workers is the worker-pool width cfg asks for: Jobs when set,
// otherwise one worker per available CPU.
func (cfg Config) workers() int {
	if cfg.Jobs > 0 {
		return cfg.Jobs
	}
	return runtime.GOMAXPROCS(0)
}

// arenas is a LIFO of the arenas exited mapJobs workers gave back. Each
// keeps a body and spare codecs per scheme, so the process holds that
// much per worker of the most that ever ran at once.
var arenas struct {
	sync.Mutex
	free []*noc.Arena
}

// takeArena returns the arena a worker builds its networks on.
func takeArena() *noc.Arena {
	arenas.Lock()
	defer arenas.Unlock()
	if k := len(arenas.free); k > 0 {
		a := arenas.free[k-1]
		arenas.free = arenas.free[:k-1]
		return a
	}
	return new(noc.Arena)
}

// giveArena hands a worker's arena back as the worker exits.
func giveArena(a *noc.Arena) {
	arenas.Lock()
	arenas.free = append(arenas.free, a)
	arenas.Unlock()
}

// mapJobs runs fn(0..n-1) on a pool of workers and returns the results
// in index order. Each job builds its own Network, seeded from the
// experiment Config and its cell alone, so jobs share no mutable state
// and the schedule cannot move a result; each worker owns one arena for
// its whole life and passes it to every job it runs. With one worker (or
// one job) it degenerates to a plain serial loop with no goroutines. In
// the parallel case every job runs to completion even after a failure,
// so the lowest-index error — the one the serial loop would return — is
// always the one reported.
func mapJobs[T any](workers, n int, fn func(a *noc.Arena, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]T, n)
	if workers <= 1 || n == 1 {
		a := takeArena()
		defer giveArena(a)
		for i := 0; i < n; i++ {
			v, err := fn(a, i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	workers = min(workers, n)
	errs := make([]error, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			a := takeArena()
			defer giveArena(a)
			for i := range idx {
				out[i], errs[i] = fn(a, i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
