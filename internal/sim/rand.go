package sim

// Rand is the repository's seeded generator, splitmix64: deterministic,
// cheap, and independent of math/rand, so workload contents, fault draws
// and generated test inputs are stable across Go releases.
type Rand struct{ s uint64 }

// NewRand seeds a generator.
func NewRand(seed uint64) *Rand { return &Rand{s: seed} }

// Next returns the next 64-bit value.
func (r *Rand) Next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Intn returns a value in [0, n); n must be positive.
func (r *Rand) Intn(n int) int { return int(r.Int63n(int64(n))) }

// Int63n returns a value in [0, n); n must be positive.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Rand bound must be positive")
	}
	return int64(r.Next() % uint64(n))
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 { return float64(r.Next()>>11) / float64(1<<53) }
