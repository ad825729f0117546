// Package mlfit is the machine-learning half of the paper (§3.3): it fits
// every candidate nonlinear function of the expr family to the score
// distribution produced by the simulation scheme, using weighted
// least-squares regression (Eq. 4, weight r·n), and ranks the fitted
// functions by mean absolute error (Eq. 5). The four best become the
// scheduling policies F1–F4.
//
// Every function in the family is linear in *derived* coefficients (each
// multiplicative group collapses its constants into one), so the fit has a
// closed-form weighted linear least-squares solution; a Levenberg–
// Marquardt polish then runs on the original three coefficients, mirroring
// the artifact's use of SciPy leastsq and guarding against degenerate
// groupings.
package mlfit

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"github.com/hpcsched/gensched/internal/expr"
	"github.com/hpcsched/gensched/internal/runner"
)

// Sample is one observation of scheduling behavior: the task's processing
// time r, cores n, arrival time s, and simulated score (§3.2, Eq. 3).
type Sample struct {
	R, N, S float64
	Score   float64
}

// Options configures the regression.
type Options struct {
	// Weight returns the regression weight of a sample; nil selects the
	// paper's r·n weighting (Eq. 4). The unweighted ablation passes a
	// constant function.
	Weight func(Sample) float64
	// Polish enables the Levenberg–Marquardt refinement after the
	// closed-form solve (default off — the closed form is already the
	// global optimum; the polish exists for validation and ablations).
	Polish bool
	// Workers bounds the fitting parallelism in FitAll;
	// 0 selects GOMAXPROCS.
	Workers int
}

// PaperWeight is the Eq. 4 weight: w(t) = r_t·n_t, emphasizing accurate
// score estimates for large tasks.
func PaperWeight(s Sample) float64 { return s.R * s.N }

// Result is one fitted candidate function.
type Result struct {
	Func      expr.Func
	Rank      float64 // Eq. 5: mean |f(r,n,s) − score| over the samples
	SSE       float64 // weighted sum of squared residuals (Eq. 4)
	Converged bool
}

// ErrNoSamples is returned when the training set is empty.
var ErrNoSamples = errors.New("mlfit: no samples")

// features is one form's per-sample view: the three base-function columns
// a = α(r), b = β(n), c = γ(s), the target y and the regression weight w.
// The columns are borrowed (from FeaturePlanes or a scratch gather), never
// owned — a fit must not write through them.
type features struct {
	a, b, c []float64
	y       []float64
	w       []float64
}

// buildFeatures computes one form's features from scratch — the slow path
// single-form fits use; FitAll borrows from shared FeaturePlanes instead.
func buildFeatures(form expr.Form, samples []Sample, weight func(Sample) float64) features {
	n := len(samples)
	f := features{
		a: make([]float64, n), b: make([]float64, n), c: make([]float64, n),
		y: make([]float64, n), w: make([]float64, n),
	}
	for i, s := range samples {
		f.a[i], f.b[i], f.c[i] = form.Terms(s.R, s.N, s.S)
		f.y[i] = s.Score
		f.w[i] = weight(s)
	}
	return f
}

// FeaturePlanes holds the shared per-sample columns every fit of a
// training set borrows: one column per distinct expr.Base applied to each
// of r, n, s (4 bases × 3 variables = 12 columns), plus the target y and
// the regression weight w, all computed exactly once. Before the planes,
// FitAll recomputed the base transforms once per form — 576 identical
// passes over the samples; now every fit is a column lookup. The columns are identical bit for bit to what
// buildFeatures computes, so fits borrowing planes return identical
// results. Planes are immutable after construction and safe to share
// across goroutines.
type FeaturePlanes struct {
	n    int
	base [3][expr.NumBases][]float64 // [variable r/n/s][base][sample]
	y, w []float64
}

// BuildFeaturePlanes computes the shared feature planes of a training
// set. A nil weight selects the paper's r·n weighting, as in Options.
func BuildFeaturePlanes(samples []Sample, weight func(Sample) float64) *FeaturePlanes {
	if weight == nil {
		weight = PaperWeight
	}
	n := len(samples)
	p := &FeaturePlanes{n: n, y: make([]float64, n), w: make([]float64, n)}
	for v := range p.base {
		for b := range p.base[v] {
			p.base[v][b] = make([]float64, n)
		}
	}
	for i, s := range samples {
		for b := 0; b < expr.NumBases; b++ {
			p.base[0][b][i] = expr.Base(b).Eval(s.R)
			p.base[1][b][i] = expr.Base(b).Eval(s.N)
			p.base[2][b][i] = expr.Base(b).Eval(s.S)
		}
		p.y[i] = s.Score
		p.w[i] = weight(s)
	}
	return p
}

// Len returns the number of samples the planes were built from.
func (p *FeaturePlanes) Len() int { return p.n }

// features borrows one form's columns from the planes.
func (p *FeaturePlanes) features(form expr.Form) features {
	return features{
		a: p.base[0][form.A],
		b: p.base[1][form.B],
		c: p.base[2][form.C],
		y: p.y,
		w: p.w,
	}
}

// fitScratch owns the working buffers one fitting worker reuses across
// forms: the derived-column products, the normal-equation system and the
// Levenberg–Marquardt buffers. With caller-owned scratch a full FitAll
// performs O(forms) small allocations (result bookkeeping) instead of
// O(forms × samples) column rebuilds.
type fitScratch struct {
	cols [2][]float64 // derived multiplicative-product columns
	lsq  lsqScratch
	lm   LMScratch
}

// buf returns derived-column buffer k resized to n samples.
func (sc *fitScratch) buf(k, n int) []float64 {
	if cap(sc.cols[k]) < n {
		sc.cols[k] = make([]float64, n)
	}
	return sc.cols[k][:n]
}

// derived builds the derived linear features of a form: every
// multiplicative group contributes a single feature, every additive term
// its own. expand maps the derived solution back to (c1, c2, c3). The
// product columns land in sc's buffers; a nil sc allocates fresh ones.
func derived(form expr.Form, f features, sc *fitScratch) (cols [3][]float64, ncols int, expand func([]float64) [3]float64) {
	n := len(f.y)
	// mul is only ever called with a multiplicative op; the two loops are
	// Op.Apply's OpMul and OpDiv bodies (including the zero-denominator
	// guard) with the dispatch hoisted out of the element loop.
	mul := func(op expr.Op, xs, ys, out []float64) []float64 {
		if op == expr.OpMul {
			for i := range out {
				out[i] = xs[i] * ys[i]
			}
			return out
		}
		for i := range out {
			d := ys[i]
			if d == 0 {
				d = math.SmallestNonzeroFloat64
			}
			out[i] = xs[i] / d
		}
		return out
	}
	buf := func(k int) []float64 {
		if sc == nil {
			return make([]float64, n)
		}
		return sc.buf(k, n)
	}
	op1, op2 := form.Op1, form.Op2
	switch {
	case op1 == expr.OpAdd && op2 == expr.OpAdd:
		// c1·A + c2·B + c3·C: already linear.
		return [3][]float64{f.a, f.b, f.c}, 3, func(k []float64) [3]float64 {
			return [3]float64{k[0], k[1], k[2]}
		}
	case op1 != expr.OpAdd && op2 == expr.OpAdd:
		// (c1·A ∘ c2·B) + c3·C = k1·(A∘B) + k2·C.
		return [3][]float64{mul(op1, f.a, f.b, buf(0)), f.c}, 2, func(k []float64) [3]float64 {
			return [3]float64{k[0], 1, k[1]}
		}
	case op1 == expr.OpAdd && op2 != expr.OpAdd:
		// c1·A + (c2·B ∘ c3·C) = k1·A + k2·(B∘C).
		return [3][]float64{f.a, mul(op2, f.b, f.c, buf(0))}, 2, func(k []float64) [3]float64 {
			return [3]float64{k[0], k[1], 1}
		}
	default:
		// Fully multiplicative chain: one derived coefficient.
		return [3][]float64{mul(op2, mul(op1, f.a, f.b, buf(0)), f.c, buf(1))}, 1, func(k []float64) [3]float64 {
			return [3]float64{k[0], 1, 1}
		}
	}
}

// Fit fits one candidate form to the samples and reports its Eq. 5 rank.
//
//gensched:allow deadlint reference oracle: the one-form fit FitAll's shared planes must reproduce bit for bit
func Fit(form expr.Form, samples []Sample, opt Options) (Result, error) {
	if len(samples) == 0 {
		return Result{}, ErrNoSamples
	}
	weight := opt.Weight
	if weight == nil {
		weight = PaperWeight
	}
	return fitFeatures(form, buildFeatures(form, samples, weight), opt, nil), nil
}

// fitFeatures is the fitting core shared by Fit and FitAll: closed-form weighted least squares on the derived
// features, optional Levenberg–Marquardt polish, Eq. 5 ranking. It
// performs exactly the floating-point operations the original
// one-form-at-a-time path performed, in the same order — scratch reuse
// changes where intermediates live, never their values.
func fitFeatures(form expr.Form, f features, opt Options, sc *fitScratch) Result {
	cols, ncols, expand := derived(form, f, sc)
	var lsqSc *lsqScratch
	var lmSc *LMScratch
	if sc != nil {
		lsqSc = &sc.lsq
		lmSc = &sc.lm
	}
	// The specialized combine performs Form.Combine's operations in
	// Form.Combine's order with the precedence dispatch hoisted out of the
	// per-sample loops below.
	combine := form.CombineFunc()
	k, err := weightedLSQ(cols[:ncols], f.y, f.w, lsqSc)
	coef := [3]float64{1, 1, 1}
	converged := err == nil
	if err == nil {
		coef = expand(k)
	}
	fn := expr.Func{Form: form, C: coef}
	if opt.Polish || err != nil {
		res := LevenbergMarquardt(func(c []float64, out []float64) {
			cc := [3]float64{c[0], c[1], c[2]}
			for i := range out {
				out[i] = f.w[i] * (combine(cc, f.a[i], f.b[i], f.c[i]) - f.y[i])
			}
		}, coef[:], len(f.y), LMOptions{Scratch: lmSc})
		fn.C = [3]float64{res.Coef[0], res.Coef[1], res.Coef[2]}
		converged = res.Converged
	}
	out := Result{Func: fn, Converged: converged}
	for i := range f.y {
		pred := combine(fn.C, f.a[i], f.b[i], f.c[i])
		d := pred - f.y[i]
		out.Rank += math.Abs(d)
		wd := f.w[i] * d
		out.SSE += wd * wd
	}
	out.Rank /= float64(len(f.y))
	if math.IsNaN(out.Rank) {
		out.Rank = math.Inf(1)
	}
	return out
}

// FitAll fits every form of the family (all 576) and returns the results
// sorted by ascending rank (best fit first). Ties break on the
// enumeration order, so the output is deterministic. Fitting fans out
// over the shared internal/runner pool; the base transforms, target and
// weights are computed once into shared FeaturePlanes that every worker
// borrows, and scratch buffers are recycled through a pool across forms.
func FitAll(samples []Sample, opt Options) ([]Result, error) {
	if len(samples) == 0 {
		return nil, ErrNoSamples
	}
	planes := BuildFeaturePlanes(samples, opt.Weight)
	forms := expr.Enumerate()
	results := make([]Result, len(forms))
	// Fan out through the shared deterministic pool: each form's result
	// lands in its own slot, so worker count and interleaving cannot
	// reach the output. Workers borrow scratch from a pool instead of
	// owning one per goroutine, keeping the fit allocation-lean.
	scratch := sync.Pool{New: func() any { return new(fitScratch) }}
	err := runner.Run(context.Background(), opt.Workers, len(forms), func(_ context.Context, i int) error {
		sc := scratch.Get().(*fitScratch)
		results[i] = fitFeatures(forms[i], planes.features(forms[i]), opt, sc)
		scratch.Put(sc)
		return nil
	})
	if err != nil {
		return nil, err
	}
	order := make([]int, len(results))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool {
		return results[order[x]].Rank < results[order[y]].Rank
	})
	sorted := make([]Result, len(results))
	for i, idx := range order {
		sorted[i] = results[idx]
	}
	return sorted, nil
}

// TopDistinct filters ranked results down to the first count functions
// that are *behaviorally* distinct, dropping the algebraically equivalent
// duplicates the enumeration necessarily contains (the artifact notes
// equivalent functions share a fitness value; e.g. r/(1/n) ≡ r·n, and
// both fits land on identical predictions). Equivalence is detected by
// fingerprinting each fitted function's normalized outputs on a fixed
// probe grid — robust against purely syntactic differences.
func TopDistinct(results []Result, count int) []Result {
	seen := make(map[string]bool)
	var out []Result
	for _, r := range results {
		key := fingerprint(r.Func)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, r)
		if len(out) == count {
			break
		}
	}
	return out
}

// probeGrid spans the training ranges of (r, n, s).
var probeGrid = func() [][3]float64 {
	rs := []float64{1, 60, 3600, 27000}
	ns := []float64{1, 8, 64, 256}
	ss := []float64{1, 3600, 43200, 86400}
	var pts [][3]float64
	for i, r := range rs {
		for j, n := range ns {
			// A diagonal slice keeps the grid small but exercises all axes.
			pts = append(pts, [3]float64{r, n, ss[(i+j)%len(ss)]})
		}
	}
	return pts
}()

// fingerprint encodes a function's shape: its probe-grid outputs shifted
// and scaled to [0,1] (so order-preserving rescales collapse to one key)
// and quantized to absorb float noise.
func fingerprint(f expr.Func) string {
	vals := make([]float64, len(probeGrid))
	lo, hi := math.Inf(1), math.Inf(-1)
	for i, p := range probeGrid {
		v := f.Eval(p[0], p[1], p[2])
		vals[i] = v
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	span := hi - lo
	if span <= 0 || math.IsNaN(span) || math.IsInf(span, 0) {
		span = 1
	}
	var sb strings.Builder
	for _, v := range vals {
		q := int64(math.Round((v - lo) / span * 1e5))
		fmt.Fprintf(&sb, "%d,", q)
	}
	return sb.String()
}
