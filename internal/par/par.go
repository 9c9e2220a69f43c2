// Package par runs the independent items of a loop on a bounded number of
// goroutines. It is the one place that decides how many goroutines a
// parallel stage gets and which of them takes which item, so a caller
// keeps only what its items compute: each writes its result by item index
// and keeps what it reuses per worker, and every reduction over the
// results runs after For returns, in index order. What a caller computes
// then depends on neither the worker count nor the scheduling.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a configured worker count against n items: a value of
// zero or less means GOMAXPROCS, and the result is never more than n nor
// less than one.
func Workers(configured, n int) int {
	w := configured
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return max(min(w, n), 1)
}

// For calls f(worker, i) once for every i in [0, n) on Workers(workers, n)
// goroutines and returns when every call has. The caller is worker 0, the
// others are numbered from 1, and every worker claims the next item in
// index order from one counter until none are left. With one worker every
// call runs on the caller's goroutine and For allocates nothing.
func For(workers, n int, f func(worker, i int)) {
	workers = Workers(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			f(0, i)
		}
		return
	}
	var next atomic.Int64
	work := func(w int) {
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			f(w, i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
}
