package apps

import (
	"fmt"
	"runtime"
	"sync"

	"activesan/internal/stats"
)

// Parallel runs fn(0) .. fn(n-1) over a pool of `workers` goroutines
// (workers < 1 selects runtime.GOMAXPROCS(0)) and returns when all have
// finished. Each call should store its result by index, so the output is
// identical to a sequential loop whatever the completion order. A
// panicking call does not kill its worker: the first panic in index order
// is re-raised on the caller's goroutine as "<name(i)> panicked: <value>",
// where deferred output flushing can still run. One worker runs the calls
// inline, in order, so their panics propagate unwrapped.
func Parallel(n, workers int, name func(i int) string, fn func(i int)) {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
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

// Width is how many simulations under e may be live at once. A config
// with a trace sink (Trace or Spans) runs one at a time, so its trace is
// the sequential run's at any width. Otherwise it is e.Parallel, with < 1
// selecting runtime.GOMAXPROCS(0): a process limited to fewer Ps never
// holds more live simulations than it can run.
func (e Env) Width() int {
	switch {
	case e.Trace != nil || e.Spans != nil:
		return 1
	case e.Parallel < 1:
		return runtime.GOMAXPROCS(0)
	default:
		return e.Parallel
	}
}

// Runs runs fn(0) .. fn(n-1), the independent simulations of one
// experiment, e.Width() at a time through Parallel: results stored by
// index are the sequential loop's at any width, and a width of 1 runs
// every call on the caller's goroutine, in order.
func (e Env) Runs(n int, name func(i int) string, fn func(i int)) {
	Parallel(n, e.Width(), name, fn)
}

// RunMatrix runs one benchmark in the paper's four configurations
// (AllConfigs) through env.Runs and returns them as one result, in
// configuration order, with the standard one-switch-CPU bars. run must
// share its inputs read-only, because the configurations may run at once.
func RunMatrix(env Env, id, title string, run func(cfg Config) stats.Run) *stats.Result {
	res := &stats.Result{ID: id, Title: title, Runs: make([]stats.Run, len(AllConfigs))}
	env.Runs(len(AllConfigs),
		func(i int) string { return id + " " + AllConfigs[i].String() },
		func(i int) { res.Runs[i] = run(AllConfigs[i]) })
	res.Bars = StandardBars(res, 1)
	return res
}
