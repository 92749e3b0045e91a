package experiments

import (
	"runtime"
	"sync"
)

// Runner executes independent simulation jobs on a bounded worker pool.
// replay fans every driver's cells through one: each job builds its own
// Network (with its own seeded sim.Rand, derived only from the
// experiment Config and the cell), so jobs share no mutable state and
// the schedule cannot influence results.
//
// Determinism contract: results are collected by job index, so the
// returned slice is identical to running the jobs serially, whatever the
// interleaving. Errors are resolved the same way — the error reported is
// the one the serial path would have hit first (lowest job index).
type Runner struct {
	// Workers bounds the number of concurrently executing jobs.
	// Values below 1 mean serial execution.
	Workers int
}

// Runner returns the worker pool the Config asks for: Jobs when set,
// otherwise one worker per available CPU.
func (cfg Config) Runner() Runner {
	w := cfg.Jobs
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return Runner{Workers: w}
}

// mapJobs runs fn(0..n-1) on r's worker pool and returns the results in
// index order. With one worker (or one job) it degenerates to a plain
// serial loop with no goroutines. In the parallel case every job runs to
// completion even after a failure, so the lowest-index error — the one
// the serial loop would return — is always the one reported.
func mapJobs[T any](r Runner, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]T, n)
	if r.Workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			v, err := fn(i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	workers := r.Workers
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				out[i], errs[i] = fn(i)
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
