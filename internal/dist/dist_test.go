package dist

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed streams diverge at draw %d", i)
		}
	}
	c := New(43)
	same := true
	a = New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestSplit(t *testing.T) {
	if Split(1, 2) != Split(1, 2) {
		t.Error("Split not deterministic")
	}
	// Streams of one seed, and one stream across seeds, must not collide.
	seen := make(map[uint64]bool)
	for stream := uint64(0); stream < 1000; stream++ {
		s := Split(7, stream)
		if seen[s] {
			t.Fatalf("stream %d collides", stream)
		}
		seen[s] = true
	}
	for seed := uint64(0); seed < 1000; seed++ {
		if seed == 7 {
			continue // already counted by the stream loop above
		}
		s := Split(seed, 3)
		if seen[s] {
			t.Fatalf("seed %d stream 3 collides", seed)
		}
		seen[s] = true
	}
}

func TestRNGSplitIndependentOfPosition(t *testing.T) {
	a := New(9)
	b := New(9)
	b.Float64() // advance b; Split must depend on the seed, not the state
	x, y := a.Split(5), b.Split(5)
	for i := 0; i < 100; i++ {
		if x.Uint64() != y.Uint64() {
			t.Fatal("Split depends on generator position")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(1)
	var sum float64
	const n = 200_000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v outside [0,1)", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.005 {
		t.Errorf("Float64 mean = %v, want 0.5", mean)
	}
}

func TestOpen01Range(t *testing.T) {
	r := New(2)
	for i := 0; i < 200_000; i++ {
		v := r.Open01()
		if v <= 0 || v > 1 {
			t.Fatalf("Open01 = %v outside (0,1]", v)
		}
	}
}

func TestUintNUniform(t *testing.T) {
	r := New(3)
	const n, draws = 10, 100_000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		v := r.UintN(n)
		if v >= n {
			t.Fatalf("UintN(%d) = %d", n, v)
		}
		counts[v]++
	}
	want := float64(draws) / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("UintN bucket %d has %d draws, want about %.0f", v, c, want)
		}
	}
}

func TestIntNPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("IntN(0) did not panic")
		}
	}()
	New(1).IntN(0)
}

func TestNormRandMoments(t *testing.T) {
	r := New(5)
	const n = 200_000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.NormRand()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("NormRand mean = %v, want 0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("NormRand variance = %v, want 1", variance)
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	perm := func(seed uint64) []int {
		p := make([]int, 100)
		for i := range p {
			p[i] = i
		}
		New(seed).Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
		return p
	}
	p := perm(6)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("Shuffle not a permutation at %d", v)
		}
		seen[v] = true
	}
	q := perm(6)
	for i := range p {
		if p[i] != q[i] {
			t.Fatal("Shuffle not deterministic")
		}
	}
}

func TestGammaMoments(t *testing.T) {
	cases := []struct{ shape, scale float64 }{
		{10.23, 0.4871}, // the Lublin arrival parameters
		{4.2, 0.94},     // the short-runtime component
		{0.5, 2.0},      // shape < 1 branch
	}
	for _, c := range cases {
		r := New(7)
		const n = 200_000
		var sum, sumsq float64
		for i := 0; i < n; i++ {
			v := Gamma(r, c.shape, c.scale)
			if v <= 0 {
				t.Fatalf("Gamma(%v,%v) = %v", c.shape, c.scale, v)
			}
			sum += v
			sumsq += v * v
		}
		mean := sum / n
		variance := sumsq/n - mean*mean
		wantMean := c.shape * c.scale
		wantVar := c.shape * c.scale * c.scale
		if math.Abs(mean-wantMean) > 0.02*wantMean {
			t.Errorf("Gamma(%v,%v) mean = %v, want %v", c.shape, c.scale, mean, wantMean)
		}
		if math.Abs(variance-wantVar) > 0.05*wantVar {
			t.Errorf("Gamma(%v,%v) variance = %v, want %v", c.shape, c.scale, variance, wantVar)
		}
	}
}

func TestHyperGammaMoments(t *testing.T) {
	h := HyperGamma{A1: 4.2, B1: 0.94, A2: 312, B2: 0.03, P: 0.7}
	r := New(8)
	const n = 200_000
	var sum float64
	for i := 0; i < n; i++ {
		sum += h.Sample(r)
	}
	mean := sum / n
	if want := h.Mean(); math.Abs(mean-want) > 0.02*want {
		t.Errorf("HyperGamma mean = %v, want %v", mean, want)
	}
}

func TestTwoStageUniform(t *testing.T) {
	ts := TwoStageUniform{Low: 0.8, Med: 4.5, High: 8, Prob: 0.86}
	if !ts.Valid() {
		t.Fatal("valid distribution rejected")
	}
	bad := []TwoStageUniform{
		{Low: 2, Med: 1, High: 3, Prob: 0.5},  // Low > Med
		{Low: 1, Med: 5, High: 4, Prob: 0.5},  // Med > High
		{Low: 1, Med: 2, High: 3, Prob: 1.5},  // Prob > 1
		{Low: 1, Med: 2, High: 3, Prob: -0.1}, // Prob < 0
	}
	for i, b := range bad {
		if b.Valid() {
			t.Errorf("bad distribution %d accepted", i)
		}
	}
	r := New(9)
	const n = 200_000
	var sum float64
	low := 0
	for i := 0; i < n; i++ {
		v := ts.Sample(r)
		if v < ts.Low || v > ts.High {
			t.Fatalf("sample %v outside [%v,%v]", v, ts.Low, ts.High)
		}
		if v <= ts.Med {
			low++
		}
		sum += v
	}
	if mean, want := sum/n, ts.Mean(); math.Abs(mean-want) > 0.02*want {
		t.Errorf("mean = %v, want %v", mean, want)
	}
	if frac := float64(low) / n; math.Abs(frac-ts.Prob) > 0.01 {
		t.Errorf("low-stage fraction = %v, want %v", frac, ts.Prob)
	}
}
