package apps

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"activesan/internal/metrics"
	"activesan/internal/sim"
)

// Results land by index whatever the worker count, and every call runs
// exactly once.
func TestParallelKeepsIndexOrder(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		out := make([]int, 50)
		var calls atomic.Int64
		Parallel(len(out), workers, func(i int) string { return fmt.Sprint(i) }, func(i int) {
			calls.Add(1)
			out[i] = i * i
		})
		if calls.Load() != int64(len(out)) {
			t.Fatalf("workers=%d: %d calls, want %d", workers, calls.Load(), len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
}

// A panicking call does not kill its worker: every other call still runs,
// and the first panic in index order is re-raised on the caller's
// goroutine, named by the caller.
func TestParallelReraisesFirstPanic(t *testing.T) {
	var calls atomic.Int64
	defer func() {
		msg, _ := recover().(string)
		if !strings.HasPrefix(msg, "point 3 panicked: boom 3") {
			t.Fatalf("re-raised %q, want the index-3 panic first", msg)
		}
		if calls.Load() != 10 {
			t.Fatalf("%d calls ran, want all 10", calls.Load())
		}
	}()
	Parallel(10, 4, func(i int) string { return fmt.Sprintf("point %d", i) }, func(i int) {
		calls.Add(1)
		if i == 3 || i == 7 {
			panic(fmt.Sprintf("boom %d", i))
		}
	})
	t.Fatal("panic was swallowed")
}

// Width is the one place that decides how many simulations overlap: a trace
// sink or span writer forces one at a time, Parallel < 1 selects
// GOMAXPROCS, and any other Parallel is taken as it is.
func TestEnvWidth(t *testing.T) {
	sink := func(sim.TraceEvent) {}
	for _, c := range []struct {
		env  Env
		want int
	}{
		{Env{}, runtime.GOMAXPROCS(0)},
		{Env{Parallel: -1}, runtime.GOMAXPROCS(0)},
		{Env{Parallel: 1}, 1},
		{Env{Parallel: 6}, 6},
		{Env{Parallel: 6, Trace: sink}, 1},
		{Env{Parallel: 6, Spans: &metrics.ChromeTraceWriter{}}, 1},
	} {
		if got := c.env.Width(); got != c.want {
			t.Errorf("Width of %+v = %d, want %d", c.env, got, c.want)
		}
	}
}

// At width 1 Runs calls fn in index order on the caller's goroutine, so a
// panic propagates as it was raised.
func TestRunsWidthOneIsInline(t *testing.T) {
	var order []int
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v, want the unwrapped panic", r)
			}
		}()
		Env{Parallel: 1}.Runs(5, func(i int) string { return fmt.Sprint(i) }, func(i int) {
			order = append(order, i)
			if i == 3 {
				panic("boom")
			}
		})
	}()
	if fmt.Sprint(order) != "[0 1 2 3]" {
		t.Fatalf("calls ran in order %v, want [0 1 2 3] and none after the panic", order)
	}
}
