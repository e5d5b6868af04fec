package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// The Group tests pin the partitioned-engine contract from PERFORMANCE.md:
// deliveries land at exact virtual times, same-time cross-partition messages
// inject in (time, channel, sequence) order, credits retire deliveries in
// FIFO order, and rounds that fit no conservative window degrade to single-
// instant micro-steps.

// TestGroupDeliverTiming: a message posted during a window runs on the
// receiving engine at exactly the requested virtual time, and Run returns
// the latest clock across partitions.
func TestGroupDeliverTiming(t *testing.T) {
	g := NewGroup(2)
	defer g.Shutdown()
	ch := g.Connect(0, 1, 5, 0)

	var gotAt Time = -1
	g.Engine(0).Schedule(10, func() {
		ch.Deliver(15, func() {
			gotAt = g.Engine(1).Now()
		})
	})
	end := g.Run()
	if gotAt != 15 {
		t.Fatalf("delivery ran at %d, want 15", gotAt)
	}
	if end != 15 {
		t.Fatalf("Run returned %d, want 15", end)
	}
	if g.Rounds() == 0 {
		t.Fatalf("no barrier rounds recorded")
	}
}

// TestGroupInjectionOrder: messages buffered across a barrier inject in
// (time, channel index, channel sequence) order regardless of which rank
// posted them, so the receiving engine's event order is deterministic.
func TestGroupInjectionOrder(t *testing.T) {
	g := NewGroup(3)
	defer g.Shutdown()
	chA := g.Connect(1, 0, 1, 0) // idx 0: ties ahead of chB
	chB := g.Connect(2, 0, 1, 0) // idx 1

	var order []string
	note := func(s string) func() { return func() { order = append(order, s) } }

	// Both senders buffer same-time (t=50) deliveries in one window; rank 2
	// posts before rank 1 in wall-clock terms, but channel index must win.
	g.Engine(1).Schedule(3, func() {
		chA.Deliver(50, note("a1"))
		chA.Deliver(50, note("a2"))
	})
	g.Engine(2).Schedule(2, func() {
		chB.Deliver(50, note("b1"))
		chB.Deliver(40, note("b0"))
	})
	g.Run()

	want := []string{"b0", "a1", "a2", "b1"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("injection order %v, want %v", order, want)
	}
}

// TestGroupCreditFIFO: credits retire outstanding deliveries oldest-first,
// return to the sending engine at the receiver's posting time, and a fully
// credited channel leaves the outstanding list.
func TestGroupCreditFIFO(t *testing.T) {
	g := NewGroup(2)
	defer g.Shutdown()
	ch := g.Connect(0, 1, 5, 3)

	var creditAt []Time
	g.Engine(0).Schedule(0, func() {
		ch.Deliver(10, func() {
			// Receiver frees the buffer 3 ns after arrival.
			g.Engine(1).Schedule(13, func() { ch.Credit(func() { creditAt = append(creditAt, g.Engine(0).Now()) }) })
		})
		ch.Deliver(20, func() {
			g.Engine(1).Schedule(23, func() { ch.Credit(func() { creditAt = append(creditAt, g.Engine(0).Now()) }) })
		})
	})
	g.Run()

	if want := []Time{13, 23}; !reflect.DeepEqual(creditAt, want) {
		t.Fatalf("credits returned at %v, want %v", creditAt, want)
	}
	if ch.outHead != 0 || len(ch.outstanding) != 0 {
		t.Fatalf("outstanding not drained: head=%d len=%d", ch.outHead, len(ch.outstanding))
	}
	if ch.inOutst {
		// The lazy compaction runs at the next barrier's computeHorizons;
		// after Run drains, one more compaction may be pending — accept
		// either, but the retire bookkeeping above must be exact.
		t.Logf("channel still on outstanding list (compacts at next barrier)")
	}
}

// TestGroupMicroStep constructs mutual credit blockage: both partitions hold
// a delivery at T whose channels have zero credit lookahead, so neither
// horizon admits a window and the round must settle T as a micro-step.
func TestGroupMicroStep(t *testing.T) {
	g := NewGroup(2)
	defer g.Shutdown()
	chA := g.Connect(0, 1, 5, 0)
	chB := g.Connect(1, 0, 5, 0)

	// One slot per receiving rank: the two t=5 micro-step windows execute
	// concurrently, so a shared slice would race.
	at0, at1 := Time(-1), Time(-1)
	g.Engine(0).Schedule(0, func() {
		chA.Deliver(5, func() { at1 = g.Engine(1).Now() })
	})
	g.Engine(1).Schedule(0, func() {
		chB.Deliver(5, func() { at0 = g.Engine(0).Now() })
	})
	g.Run()

	if at0 != 5 || at1 != 5 {
		t.Fatalf("deliveries at %d and %d, want 5 and 5", at0, at1)
	}
	if g.MicroSteps() == 0 {
		t.Fatalf("expected the credit-blocked round to micro-step, got %d rounds, 0 micro-steps", g.Rounds())
	}
}

// TestGroupSequentialEquivalence: inline dispatch runs windows with results
// identical to the workers', and makes the busy-time accounting live.
func TestGroupSequentialEquivalence(t *testing.T) {
	run := func(d Dispatch) (Time, []Time, int64, int64) {
		g := NewGroup(2)
		defer g.Shutdown()
		g.SetDispatch(d)
		ch := g.Connect(0, 1, 5, 2)
		var at []Time
		g.Engine(0).Schedule(1, func() {
			ch.Deliver(6, func() { at = append(at, g.Engine(1).Now()) })
			ch.Deliver(9, func() { at = append(at, g.Engine(1).Now()) })
		})
		end := g.Run()
		if d == DispatchInline && (g.BusyTime() <= 0 || g.CriticalPath() <= 0 || g.CriticalPath() > g.BusyTime()) {
			t.Fatalf("inline accounting: busy=%v crit=%v", g.BusyTime(), g.CriticalPath())
		}
		if g.EventsTotal() <= 0 || g.EventsCritical() <= 0 || g.EventsCritical() > g.EventsTotal() {
			t.Fatalf("event accounting: total=%d crit=%d", g.EventsTotal(), g.EventsCritical())
		}
		return end, at, g.EventsTotal(), g.EventsCritical()
	}
	endC, atC, evTotC, evCritC := run(DispatchConcurrent)
	endS, atS, evTotS, evCritS := run(DispatchInline)
	if endC != endS || !reflect.DeepEqual(atC, atS) {
		t.Fatalf("inline run diverged: end %d vs %d, deliveries %v vs %v", endC, endS, atC, atS)
	}
	// The wall-clock pair is timing-dependent, but the event counts must be
	// exactly reproducible in either execution mode.
	if evTotC != evTotS || evCritC != evCritS {
		t.Fatalf("event accounting diverged: total %d vs %d, critical %d vs %d", evTotC, evTotS, evCritC, evCritS)
	}
}

// TestGroupPanicPropagation: a panic inside a partition window re-raises on
// the coordinator goroutine; with several failing ranks the lowest wins, so
// the surfaced crash is deterministic.
func TestGroupPanicPropagation(t *testing.T) {
	for _, d := range allDispatch {
		g := NewGroup(2)
		g.SetDispatch(d)
		g.Engine(1).Schedule(5, func() { panic("boom-rank1") })
		g.Engine(0).Schedule(5, func() { panic("boom-rank0") })
		func() {
			defer g.Shutdown()
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("dispatch %v: Run did not panic", d)
				}
				msg := fmt.Sprint(r)
				if pp, ok := r.(*procPanic); ok {
					msg = fmt.Sprint(pp.value)
				}
				if !strings.Contains(msg, "boom-rank0") {
					t.Fatalf("dispatch %v: surfaced %q, want the rank-0 panic", d, msg)
				}
			}()
			g.Run()
		}()
	}
}

// allDispatch lists every Dispatch mode, for tests that must hold in each.
var allDispatch = []Dispatch{DispatchAdaptive, DispatchInline, DispatchConcurrent}

// TestGroupConnectValidation: the wiring mistakes that would silently break
// conservatism all panic at Connect time.
func TestGroupConnectValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("NewGroup(0)", func() { NewGroup(0) })
	g := NewGroup(2)
	defer g.Shutdown()
	mustPanic("same-rank channel", func() { g.Connect(0, 0, 5, 0) })
	mustPanic("zero lookahead", func() { g.Connect(0, 1, 0, 0) })
	mustPanic("negative credit lookahead", func() { g.Connect(0, 1, 5, -1) })
	g.Run()
	mustPanic("Connect after Run", func() { g.Connect(0, 1, 5, 0) })
}

// TestGroupOneWayCreditBound pins the future-credit horizon term: on a
// channel with no reverse delivery partner, the sender must not run ahead of
// credits its own later sends will echo back. Without the bound, the sender
// window ran unboundedly ahead and late credits injected into its past.
func TestGroupOneWayCreditBound(t *testing.T) {
	g := NewGroup(2)
	defer g.Shutdown()
	ch := g.Connect(0, 1, 10, 0)
	const batch = 64
	n, sent, got := 4096, 0, 0
	ack := func() { ch.Credit(func() { got++ }) }
	var post func()
	post = func() {
		now := g.Engine(0).Now()
		for i := 0; i < batch && sent < n; i++ {
			sent++
			ch.Deliver(now+10, ack)
		}
		if sent < n {
			g.Engine(0).Schedule(now+20, post)
		}
	}
	g.Engine(0).Schedule(0, post)
	g.Run() // panics "scheduling into the past" without the bound
	if got != n {
		t.Fatalf("credits returned %d, want %d", got, n)
	}
}
