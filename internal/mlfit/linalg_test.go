package mlfit

import (
	"math"
	"testing"
)

func TestSolveDenseKnown(t *testing.T) {
	a := [][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	}
	b := []float64{8, -11, -3}
	x, err := solveDenseInto(a, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-9 {
			t.Errorf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestSolveDensePivoting(t *testing.T) {
	// Zero on the diagonal forces a row swap.
	a := [][]float64{
		{0, 1},
		{1, 0},
	}
	b := []float64{3, 5}
	x, err := solveDenseInto(a, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-5) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Errorf("x = %v, want [5 3]", x)
	}
}

func TestSolveDenseSingular(t *testing.T) {
	a := [][]float64{
		{1, 2},
		{2, 4},
	}
	if _, err := solveDenseInto(a, []float64{1, 2}, nil); err == nil {
		t.Error("singular system solved")
	}
	if _, err := solveDenseInto(nil, nil, nil); err == nil {
		t.Error("empty system solved")
	}
	if _, err := solveDenseInto([][]float64{{1}}, []float64{1, 2}, nil); err == nil {
		t.Error("mismatched system solved")
	}
}

func TestWeightedLSQRecoversLinearModel(t *testing.T) {
	// y = 3·x1 − 2·x2 + 0.5·x3, exact.
	n := 50
	f1 := make([]float64, n)
	f2 := make([]float64, n)
	f3 := make([]float64, n)
	y := make([]float64, n)
	w := make([]float64, n)
	for i := 0; i < n; i++ {
		x1 := float64(i + 1)
		x2 := float64((i*7)%13 + 1)
		x3 := float64((i*3)%5 + 1)
		f1[i], f2[i], f3[i] = x1, x2, x3
		y[i] = 3*x1 - 2*x2 + 0.5*x3
		w[i] = 1 + float64(i%4)
	}
	x, err := weightedLSQ([][]float64{f1, f2, f3}, y, w, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, -2, 0.5}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-6 {
			t.Errorf("coef[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestWeightedLSQWeightsMatter(t *testing.T) {
	// Two inconsistent points; the heavier one pulls the single
	// coefficient of y = k·x toward itself.
	feat := [][]float64{{1, 1}}
	y := []float64{0, 10}
	heavy0, err := weightedLSQ(feat, y, []float64{10, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	heavy1, err := weightedLSQ(feat, y, []float64{1, 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !(heavy0[0] < 1 && heavy1[0] > 9) {
		t.Errorf("weights ignored: %v vs %v", heavy0[0], heavy1[0])
	}
}

func TestLevenbergMarquardtQuadratic(t *testing.T) {
	// Minimize residuals of y = c0·x² + c1·x + c2 over noisy-free data:
	// exact recovery expected despite nonlinear optimizer path.
	xs := []float64{-3, -2, -1, 0, 1, 2, 3, 4}
	truth := []float64{1.5, -2, 0.75}
	eval := func(c []float64, out []float64) {
		for i, x := range xs {
			pred := c[0]*x*x + c[1]*x + c[2]
			target := truth[0]*x*x + truth[1]*x + truth[2]
			out[i] = pred - target
		}
	}
	res := LevenbergMarquardt(eval, []float64{0, 0, 0}, len(xs), LMOptions{})
	if !res.Converged {
		t.Error("did not converge")
	}
	for i := range truth {
		if math.Abs(res.Coef[i]-truth[i]) > 1e-6 {
			t.Errorf("coef[%d] = %v, want %v", i, res.Coef[i], truth[i])
		}
	}
	if res.SSE > 1e-12 {
		t.Errorf("SSE = %v", res.SSE)
	}
}

func TestLevenbergMarquardtExponential(t *testing.T) {
	// Genuinely nonlinear: y = exp(-c·x), recover c = 0.7.
	xs := make([]float64, 20)
	for i := range xs {
		xs[i] = float64(i) * 0.25
	}
	eval := func(c []float64, out []float64) {
		for i, x := range xs {
			out[i] = math.Exp(-c[0]*x) - math.Exp(-0.7*x)
		}
	}
	res := LevenbergMarquardt(eval, []float64{0.1}, len(xs), LMOptions{})
	if math.Abs(res.Coef[0]-0.7) > 1e-6 {
		t.Errorf("c = %v, want 0.7", res.Coef[0])
	}
}

func TestLevenbergMarquardtHandlesNaN(t *testing.T) {
	// An eval that returns NaN at the start must not panic or loop.
	eval := func(c []float64, out []float64) {
		for i := range out {
			out[i] = math.NaN()
		}
	}
	res := LevenbergMarquardt(eval, []float64{1}, 3, LMOptions{MaxIter: 5})
	if !math.IsInf(res.SSE, 1) {
		t.Errorf("SSE = %v, want +Inf marker", res.SSE)
	}
}
