// Dbpipeline: the paper's database motivation — Select and HashJoin with a
// bit-vector filter running inside the switch, so the host's caches stop
// thrashing on records that were never going to match (Figures 5-8, at a
// reduced problem size).
//
//	go run ./examples/dbpipeline
package main

import (
	"fmt"

	"activesan"
)

func main() {
	fmt.Println("Database operators on an active switch (scaled to 1/8 of the paper's tables)")
	fmt.Println()
	for _, id := range []string{"fig7", "fig5"} {
		res, err := activesan.RunExperiment(id, activesan.DefaultConfig(8))
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
