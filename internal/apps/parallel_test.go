package apps

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
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
