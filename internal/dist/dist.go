// Package dist is gensched's deterministic randomness kernel: a small,
// fast PRNG with explicit seeding and stream splitting, plus the three
// distributions the Lublin–Feitelson workload model is built from.
//
// Everything stochastic in the repository flows through this package so
// that (a) any simulation is reproducible bit for bit from a single seed,
// and (b) work fanned out over a worker pool can derive independent
// sub-streams with Split without coordinating — the property the trainer,
// the experiment grids and the public Runner all rely on.
package dist

import "math"

// golden is the splitmix64 increment (2^64 / phi), the standard odd
// constant that decorrelates consecutive seeds.
const golden = 0x9E3779B97F4A7C15

// mix64 is the splitmix64 finalizer: a bijective avalanche over uint64.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Split derives an independent sub-seed for the given stream index:
// splitmix64 applied to the (seed, stream) pair. Distinct streams of one
// seed, and equal streams of distinct seeds, yield unrelated generators,
// so grid cells and parallel trials can each take Split(seed, i) and stay
// reproducible for any worker count or execution order.
func Split(seed, stream uint64) uint64 {
	return mix64(seed + golden*(stream+1))
}

// RNG is a xoshiro256++ generator. It is deliberately not safe for
// concurrent use: parallel consumers take one RNG each via Split.
type RNG struct {
	s    [4]uint64
	seed uint64
}

// New returns a generator seeded via splitmix64 expansion of seed; equal
// seeds produce equal streams.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.Reseed(seed)
	return r
}

// Reseed reinitializes the generator in place to exactly the state
// New(seed) builds. Pooled workers that derive a fresh stream per work
// item (the trainer's trial engine) reseed one generator instead of
// allocating one per item.
func (r *RNG) Reseed(seed uint64) {
	r.seed = seed
	z := seed
	for i := range r.s {
		z += golden
		r.s[i] = mix64(z)
	}
}

// Seed returns the seed the generator was created with (not its current
// state); Split uses it to derive child streams.
func (r *RNG) Seed() uint64 { return r.seed }

// Split returns a fresh generator for the given stream index, derived
// from the seed this generator was created with. Independent of how many
// values have been drawn from r.
//
//gensched:allow deadlint the differential suites derive each workload's generator with it
func (r *RNG) Split(stream uint64) *RNG { return New(Split(r.seed, stream)) }

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next raw 64-bit value (xoshiro256++).
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[0]+s[3], 23) + s[0]
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Float64 returns a uniform draw from [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Open01 returns a uniform draw from (0, 1] — safe to divide by or take
// the logarithm of.
func (r *RNG) Open01() float64 {
	return (float64(r.Uint64()>>11) + 1) / (1 << 53)
}

// UintN returns a uniform draw from [0, n). Panics if n is zero.
// Uses threshold rejection, so the result is exactly uniform.
func (r *RNG) UintN(n uint64) uint64 {
	if n == 0 {
		panic("dist: UintN with n = 0")
	}
	min := -n % n // 2^64 mod n
	for {
		v := r.Uint64()
		if v >= min {
			return v % n
		}
	}
}

// IntN returns a uniform draw from [0, n). Panics if n is not positive.
func (r *RNG) IntN(n int) int {
	if n <= 0 {
		panic("dist: IntN with non-positive n")
	}
	return int(r.UintN(uint64(n)))
}

// NormRand returns a draw from the standard normal distribution
// (Box–Muller; two uniforms per draw, no cached state, so interleaving
// with other draws stays reproducible).
func (r *RNG) NormRand() float64 {
	u := r.Open01()
	v := r.Float64()
	return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
}

// Shuffle performs a Fisher–Yates shuffle of n elements through swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.IntN(i+1))
	}
}
