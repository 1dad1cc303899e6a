package sim

import "math"

// RNG is a deterministic pseudo-random number generator
// (xoshiro256** seeded via splitmix64). It is self-contained rather
// than wrapping math/rand so that results are stable across Go
// releases: a benchmark harness that cannot reproduce its own numbers
// would be an unfortunate irony.
//
// RNG is not safe for concurrent use. Derive per-component generators
// with Split instead of sharing one.
type RNG struct {
	s [4]uint64
	// cached spare normal variate from the polar method
	haveSpare bool
	spare     float64
}

// NewRNG returns a generator seeded from seed. Any seed, including
// zero, is valid.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed resets the generator state from seed using splitmix64, which
// guarantees the four xoshiro words are well distributed even for
// small or sequential seeds.
func (r *RNG) Seed(seed uint64) {
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	r.haveSpare = false
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// DeriveSeed mixes a base seed with a stream index through one
// splitmix64 round, giving every index a statistically independent
// seed. The parallel experiment engine derives all per-run seeds up
// front with this function, which is what makes results bit-identical
// at any parallelism level: run i's seed depends only on (base, i),
// never on execution order.
func DeriveSeed(base, index uint64) uint64 {
	z := base + (index+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Split returns a new generator whose stream is independent of r's
// continued output for all practical purposes. Use it to give each
// simulated component (device noise, workload, OS jitter) its own
// stream so adding a consumer does not perturb the others.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ 0xd2b74407b1ce6e93)
}

// Int63n returns a uniform random integer in [0, n). It panics if
// n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n called with n <= 0")
	}
	// Lemire's nearly-divisionless method would be faster; simple
	// modulo rejection keeps the implementation obviously correct.
	max := uint64(1)<<63 - 1
	limit := max - max%uint64(n)
	for {
		v := r.Uint64() >> 1
		if v < limit {
			return int64(v % uint64(n))
		}
	}
}

// Intn returns a uniform random int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int { return int(r.Int63n(int64(n))) }

// Float64 returns a uniform random float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// NormFloat64 returns a standard normal variate (Marsaglia polar
// method, with the spare cached).
func (r *RNG) NormFloat64() float64 {
	if r.haveSpare {
		r.haveSpare = false
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		m := math.Sqrt(-2 * math.Log(s) / s)
		r.spare = v * m
		r.haveSpare = true
		return u * m
	}
}

// ExpFloat64 returns an exponential variate with rate 1.
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}
