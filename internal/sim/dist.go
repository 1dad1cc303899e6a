package sim

import "math"

// Normal samples a normal variate with the given mean and standard
// deviation.
func (r *RNG) Normal(mean, stddev float64) float64 {
	return mean + stddev*r.NormFloat64()
}

// NormalClamped samples a normal variate truncated (by resampling-free
// clamping) to [lo, hi]. Device models use it for noisy latencies that
// must remain physical.
func (r *RNG) NormalClamped(mean, stddev, lo, hi float64) float64 {
	v := r.Normal(mean, stddev)
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Exponential samples an exponential variate with the given mean.
func (r *RNG) Exponential(mean float64) float64 {
	return mean * r.ExpFloat64()
}

// Pareto samples a Pareto variate with minimum xm and shape alpha.
// File-size distributions in the workload generator use it; real file
// systems are famously heavy-tailed.
func (r *RNG) Pareto(xm, alpha float64) float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return xm / math.Pow(u, 1/alpha)
		}
	}
}

// Zipf generates Zipf-distributed integers in [0, n) with exponent s,
// using rejection-inversion sampling (Hörmann & Derflinger). Workloads
// use it for skewed file/block popularity.
type Zipf struct {
	rng              *RNG
	n                float64
	s                float64
	oneMinusS        float64
	hIntegralX1      float64
	hIntegralN       float64
	invOneMinusS     float64
	uniformThreshold float64
}

// NewZipf returns a Zipf sampler over [0, n) with exponent s > 0,
// s != 1 handled exactly and s == 1 via the limit form. It panics if
// n < 1 or s <= 0.
func NewZipf(rng *RNG, n int64, s float64) *Zipf {
	if n < 1 {
		panic("sim: NewZipf with n < 1")
	}
	if s <= 0 {
		panic("sim: NewZipf with s <= 0")
	}
	z := &Zipf{rng: rng, n: float64(n), s: s, oneMinusS: 1 - s}
	if z.oneMinusS != 0 {
		z.invOneMinusS = 1 / z.oneMinusS
	}
	z.hIntegralX1 = z.hIntegral(1.5) - 1
	z.hIntegralN = z.hIntegral(z.n + 0.5)
	z.uniformThreshold = z.hIntegralX1 - z.hIntegral(0.5)
	return z
}

// hIntegral is the antiderivative of x^-s (the "h" helper of
// rejection-inversion).
func (z *Zipf) hIntegral(x float64) float64 {
	logX := math.Log(x)
	return helper2(z.oneMinusS*logX) * logX
}

func (z *Zipf) h(x float64) float64 {
	return math.Exp(-z.s * math.Log(x))
}

func (z *Zipf) hIntegralInverse(x float64) float64 {
	t := x * z.oneMinusS
	if t < -1 {
		t = -1
	}
	return math.Exp(helper1(t) * x)
}

// helper1 computes log1p(x)/x with the removable singularity at 0
// handled.
func helper1(x float64) float64 {
	if math.Abs(x) > 1e-8 {
		return math.Log1p(x) / x
	}
	return 1 - x/2 + x*x/3
}

// helper2 computes expm1(x)/x with the removable singularity at 0
// handled.
func helper2(x float64) float64 {
	if math.Abs(x) > 1e-8 {
		return math.Expm1(x) / x
	}
	return 1 + x/2 + x*x/6
}

// Next returns the next Zipf variate in [0, n).
func (z *Zipf) Next() int64 {
	for {
		u := z.hIntegralN + z.rng.Float64()*(z.hIntegralX1-z.hIntegralN)
		x := z.hIntegralInverse(u)
		k := math.Floor(x + 0.5)
		if k < 1 {
			k = 1
		} else if k > z.n {
			k = z.n
		}
		if k-x <= z.uniformThreshold || u >= z.hIntegral(k+0.5)-z.h(k) {
			return int64(k) - 1
		}
	}
}
