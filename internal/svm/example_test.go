package svm_test

import (
	"fmt"

	"activesan/internal/svm"
)

// Example assembles and executes a handler program against an in-memory
// stream with the stand-alone SliceEnv — the cmd/swasm dry-run flow.
func Example() {
	prog, err := svm.Assemble(svm.HistogramSource)
	if err != nil {
		panic(err)
	}
	data := []byte{9, 4, 200, 7}
	env := svm.NewSliceEnv(1<<20, data)
	m := svm.NewMachine(env, prog, map[uint8]uint32{
		1: 1 << 20,
		2: 1<<20 + uint32(len(data)),
	})
	if _, err := m.Run(); err != nil {
		panic(err)
	}
	fmt.Println("buckets:", env.Out)
	// Output: buckets: [3 0 0 1]
}
