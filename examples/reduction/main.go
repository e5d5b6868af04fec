// Reduction: the paper's collective-reduction comparison as a runnable
// example — MST on the hosts versus the switch tree, Reduce-to-one and
// Distributed Reduce, across node counts (Figures 15/16 in miniature).
//
//	go run ./examples/reduction
package main

import (
	"fmt"

	"activesan"
)

func main() {
	for _, id := range []string{"table2", "fig15", "fig16"} {
		res, err := activesan.RunExperiment(id, activesan.DefaultConfig(2))
		if err != nil {
			panic(err)
		}
		fmt.Print(res.Format())
		for _, s := range activesan.Shapes(res) {
			fmt.Printf("shape: %s\n", s)
		}
		fmt.Println()
	}
}
