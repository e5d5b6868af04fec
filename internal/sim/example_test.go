package sim_test

import (
	"fmt"

	"activesan/internal/sim"
)

// Example shows two processes coordinating through a queue in simulated
// time.
func Example() {
	eng := sim.NewEngine()
	q := sim.NewQueue[string]()
	eng.Spawn("producer", func(p *sim.Proc) {
		p.Sleep(100 * sim.Nanosecond)
		q.Put("ping")
	})
	eng.Spawn("consumer", func(p *sim.Proc) {
		msg := q.Get(p)
		fmt.Printf("%s at %v\n", msg, p.Now())
	})
	eng.Run()
	// Output: ping at 100.000ns
}

// ExampleServer shows FIFO contention on a shared resource.
func ExampleServer() {
	eng := sim.NewEngine()
	bus := sim.NewServer(eng)
	for i := 0; i < 2; i++ {
		i := i
		eng.Spawn("client", func(p *sim.Proc) {
			p.SleepUntil(bus.Reserve(50 * sim.Nanosecond))
			fmt.Printf("client %d done at %v\n", i, p.Now())
		})
	}
	eng.Run()
	// Output:
	// client 0 done at 50.000ns
	// client 1 done at 100.000ns
}
