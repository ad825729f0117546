package mlfit

import (
	"math"
	"testing"

	"github.com/hpcsched/gensched/internal/dist"
	"github.com/hpcsched/gensched/internal/expr"
)

// planesTestSamples builds a deterministic training set spanning the
// training ranges, scores from a known generator plus mild noise.
func planesTestSamples(n int) []Sample {
	truth := expr.Func{
		Form: expr.Form{A: expr.BaseLog, B: expr.BaseID, C: expr.BaseLog, Op1: expr.OpMul, Op2: expr.OpAdd},
		C:    [3]float64{1, 1, 870},
	}
	rng := dist.New(1234)
	samples := make([]Sample, n)
	for i := range samples {
		r := 1 + rng.Float64()*27000
		nc := 1 + rng.Float64()*255
		s := 1 + rng.Float64()*86400
		samples[i] = Sample{R: r, N: nc, S: s, Score: truth.Eval(r, nc, s) * (1 + 0.01*rng.Float64())}
	}
	return samples
}

// TestFeaturePlanesMatchBuildFeatures pins the shared planes to the
// per-form feature builder: every borrowed column must be bit-identical
// to a fresh buildFeatures pass, for every form of the family.
func TestFeaturePlanesMatchBuildFeatures(t *testing.T) {
	samples := planesTestSamples(64)
	planes := BuildFeaturePlanes(samples, nil)
	if planes.Len() != len(samples) {
		t.Fatalf("planes.Len() = %d, want %d", planes.Len(), len(samples))
	}
	for _, form := range expr.Enumerate() {
		want := buildFeatures(form, samples, PaperWeight)
		got := planes.features(form)
		for i := range samples {
			for name, pair := range map[string][2]float64{
				"a": {want.a[i], got.a[i]},
				"b": {want.b[i], got.b[i]},
				"c": {want.c[i], got.c[i]},
				"y": {want.y[i], got.y[i]},
				"w": {want.w[i], got.w[i]},
			} {
				if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
					t.Fatalf("form %v sample %d column %s: %v != %v", form, i, name, pair[0], pair[1])
				}
			}
		}
	}
}

// TestFitAllMatchesSequentialFit is the differential harness for the
// fast path: FitAll (shared planes, per-worker scratch) must produce
// bit-identical coefficients, ranks and SSEs to one-at-a-time Fit calls
// (fresh features, no scratch), with and without the LM polish.
func TestFitAllMatchesSequentialFit(t *testing.T) {
	samples := planesTestSamples(48)
	for _, polish := range []bool{false, true} {
		opt := Options{Polish: polish, Workers: 3}
		ranked, err := FitAll(samples, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(ranked) != 576 {
			t.Fatalf("FitAll returned %d results, want 576", len(ranked))
		}
		for _, got := range ranked {
			want, err := Fit(got.Func.Form, samples, opt)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(want.Rank) != math.Float64bits(got.Rank) ||
				math.Float64bits(want.SSE) != math.Float64bits(got.SSE) ||
				want.Converged != got.Converged ||
				want.Func.C != got.Func.C {
				t.Fatalf("polish=%v form %v: FitAll %+v != Fit %+v", polish, got.Func.Form, got, want)
			}
		}
	}
}

// TestLMScratchReuse pins buffer reuse: running two different
// optimizations through one scratch must give the same results as fresh
// allocations, and the returned Coef must not alias the scratch.
func TestLMScratchReuse(t *testing.T) {
	evalA := func(c []float64, out []float64) {
		for i := range out {
			x := float64(i)
			out[i] = c[0]*x*x + c[1]*x - (2*x*x - 3*x)
		}
	}
	evalB := func(c []float64, out []float64) {
		for i := range out {
			x := float64(i) * 0.5
			out[i] = math.Exp(-c[0]*x) - math.Exp(-0.9*x)
		}
	}
	var sc LMScratch
	a1 := LevenbergMarquardt(evalA, []float64{0, 0}, 8, LMOptions{Scratch: &sc})
	b1 := LevenbergMarquardt(evalB, []float64{0.1}, 12, LMOptions{Scratch: &sc})
	a2 := LevenbergMarquardt(evalA, []float64{0, 0}, 8, LMOptions{})
	b2 := LevenbergMarquardt(evalB, []float64{0.1}, 12, LMOptions{})
	for i := range a1.Coef {
		if math.Float64bits(a1.Coef[i]) != math.Float64bits(a2.Coef[i]) {
			t.Fatalf("scratch changed quadratic fit: %v vs %v", a1.Coef, a2.Coef)
		}
	}
	if math.Float64bits(b1.Coef[0]) != math.Float64bits(b2.Coef[0]) {
		t.Fatalf("scratch changed exponential fit: %v vs %v", b1.Coef, b2.Coef)
	}
	// Coef must be a copy, not a view of scratch.c.
	saved := b1.Coef[0]
	LevenbergMarquardt(evalA, []float64{5, 5}, 8, LMOptions{Scratch: &sc})
	if b1.Coef[0] != saved {
		t.Fatal("LMResult.Coef aliases the scratch buffers")
	}
}
