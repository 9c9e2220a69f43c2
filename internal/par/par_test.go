package par

import (
	"bytes"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkerCountResolution(t *testing.T) {
	cases := []struct {
		workers, files, want int
	}{
		{1, 10, 1},
		{4, 10, 4},
		{8, 3, 3},  // never more workers than files
		{-1, 0, 1}, // empty input still resolves to a valid pool
	}
	for _, tc := range cases {
		if got := Workers(tc.workers, tc.files); got != tc.want {
			t.Errorf("Workers(workers=%d, files=%d) = %d, want %d",
				tc.workers, tc.files, got, tc.want)
		}
	}
	if got := Workers(0, 64); got < 1 {
		t.Errorf("default Workers = %d, want >= 1", got)
	}
}

// TestForRunsEveryIndexOnce: at one worker, two, and more workers than
// items, every index is handed out exactly once and every worker number
// is in range.
func TestForRunsEveryIndexOnce(t *testing.T) {
	const n = 100
	for _, workers := range []int{1, 2, n + 3} {
		var runs [n]atomic.Int32
		var badWorker atomic.Bool
		want := Workers(workers, n)
		For(workers, n, func(w, i int) {
			if w < 0 || w >= want {
				badWorker.Store(true)
			}
			runs[i].Add(1)
		})
		for i := range runs {
			if got := runs[i].Load(); got != 1 {
				t.Errorf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
		if badWorker.Load() {
			t.Errorf("workers=%d: a worker number outside [0, %d)", workers, want)
		}
	}
}

// goid is the ID of the calling goroutine, read from its stack header.
func goid() string {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b, _, _ = bytes.Cut(bytes.TrimPrefix(b, []byte("goroutine ")), []byte(" "))
	return string(b)
}

// TestForCallerIsWorkerZero: worker 0's items run on the calling
// goroutine, every other worker's on another.
func TestForCallerIsWorkerZero(t *testing.T) {
	caller := goid()
	const n = 64
	ids := make([]string, n)
	workers := make([]int, n)
	For(4, n, func(w, i int) {
		ids[i], workers[i] = goid(), w
		runtime.Gosched()
	})
	for i := range ids {
		if (workers[i] == 0) != (ids[i] == caller) {
			t.Errorf("item %d: worker %d ran on goroutine %s, caller is %s", i, workers[i], ids[i], caller)
		}
	}
}

// TestForOneWorkerIsInline: with one worker For starts no goroutine and
// allocates nothing.
func TestForOneWorkerIsInline(t *testing.T) {
	caller := goid()
	before := runtime.NumGoroutine()
	For(1, 10, func(w, i int) {
		if w != 0 || goid() != caller || runtime.NumGoroutine() != before {
			t.Errorf("item %d ran as worker %d on goroutine %s beside %d others", i, w, goid(), runtime.NumGoroutine())
		}
	})
	sum := 0
	f := func(_, i int) { sum += i }
	if allocs := testing.AllocsPerRun(100, func() { For(1, 10, f) }); allocs != 0 {
		t.Errorf("For at one worker allocates %.0f times per call, want 0", allocs)
	}
	if sum != 101*45 {
		t.Errorf("sum of indices = %d, want %d", sum, 101*45)
	}
}
