package apps

import (
	"fmt"
	"runtime"
	"sync"
)

// Parallel runs fn(0) .. fn(n-1) over a pool of `workers` goroutines
// (workers < 1 selects runtime.NumCPU()) and returns when all have
// finished. Each call should store its result by index, so the output is
// identical to a sequential loop whatever the completion order. A
// panicking call does not kill its worker: the first panic in index order
// is re-raised on the caller's goroutine as "<name(i)> panicked: <value>",
// where deferred output flushing can still run. One worker runs the calls
// inline, so their panics propagate unwrapped.
func Parallel(n, workers int, name func(i int) string, fn func(i int)) {
	if workers < 1 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	panics := make([]any, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				func() {
					defer func() { panics[i] = recover() }()
					fn(i)
				}()
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for i, p := range panics {
		if p != nil {
			panic(fmt.Sprintf("%s panicked: %v", name(i), p))
		}
	}
}
