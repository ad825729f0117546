package dist

import "math"

// Gamma returns a draw from the gamma distribution with the given shape
// and scale (mean shape·scale). Marsaglia–Tsang squeeze for shape >= 1,
// with the standard power-of-uniform boost for shape < 1. The Lublin
// model draws ln(inter-arrival gap) from this distribution.
func Gamma(r *RNG, shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic("dist: Gamma needs positive shape and scale")
	}
	if shape < 1 {
		// X_a = X_{a+1} · U^{1/a}.
		return Gamma(r, shape+1, scale) * math.Pow(r.Open01(), 1/shape)
	}
	d := shape - 1.0/3
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.NormRand()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Open01()
		if u < 1-0.0331*x*x*x*x {
			return d * v * scale
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v * scale
		}
	}
}

// HyperGamma is a two-component gamma mixture: with probability P the
// draw comes from Gamma(A1, B1) (the Lublin model's short-job component),
// otherwise from Gamma(A2, B2) (the long-job component).
type HyperGamma struct {
	A1, B1 float64 // component 1: shape, scale
	A2, B2 float64 // component 2: shape, scale
	P      float64 // probability of component 1
}

// Mean returns the mixture mean P·A1·B1 + (1-P)·A2·B2.
//
//gensched:allow deadlint analytic reference the moment tests compare sample means against
func (h HyperGamma) Mean() float64 {
	return h.P*h.A1*h.B1 + (1-h.P)*h.A2*h.B2
}

// Sample draws one value from the mixture.
func (h HyperGamma) Sample(r *RNG) float64 {
	if r.Float64() < h.P {
		return Gamma(r, h.A1, h.B1)
	}
	return Gamma(r, h.A2, h.B2)
}

// TwoStageUniform is the Lublin size distribution: with probability Prob
// a uniform draw from [Low, Med], otherwise from [Med, High]. The model
// uses it for log2(job size), concentrating mass on small jobs.
type TwoStageUniform struct {
	Low, Med, High float64
	Prob           float64
}

// Valid reports whether the stages are ordered and the stage probability
// is a probability.
func (t TwoStageUniform) Valid() bool {
	return t.Low < t.Med && t.Med < t.High && t.Prob >= 0 && t.Prob <= 1
}

// Mean returns Prob·(Low+Med)/2 + (1-Prob)·(Med+High)/2.
//
//gensched:allow deadlint analytic reference the moment tests compare sample means against
func (t TwoStageUniform) Mean() float64 {
	return t.Prob*(t.Low+t.Med)/2 + (1-t.Prob)*(t.Med+t.High)/2
}

// Sample draws one value.
func (t TwoStageUniform) Sample(r *RNG) float64 {
	if r.Float64() < t.Prob {
		return t.Low + (t.Med-t.Low)*r.Float64()
	}
	return t.Med + (t.High-t.Med)*r.Float64()
}
