package mlfit

import (
	"errors"
	"math"
)

// ErrSingular indicates a (numerically) singular linear system.
var ErrSingular = errors.New("mlfit: singular system")

// solveDenseInto solves A·x = b in place by Gaussian elimination with
// partial pivoting. A is row-major n×n; A and b are clobbered. The fitted
// systems are at most 3×3 (the three coefficients of a candidate
// function), so no sophistication is needed — only numerical care. x is
// a caller-owned solution buffer, grown as needed and returned (a nil x
// allocates).
func solveDenseInto(a [][]float64, b, x []float64) ([]float64, error) {
	n := len(a)
	if n == 0 || len(b) != n {
		return nil, errors.New("mlfit: malformed system")
	}
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		best := math.Abs(a[col][col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a[r][col]); v > best {
				best, pivot = v, r
			}
		}
		if best == 0 || math.IsNaN(best) {
			return nil, ErrSingular
		}
		a[col], a[pivot] = a[pivot], a[col]
		b[col], b[pivot] = b[pivot], b[col]
		inv := 1 / a[col][col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] * inv
			if f == 0 {
				continue
			}
			for k := col; k < n; k++ {
				a[r][k] -= f * a[col][k]
			}
			b[r] -= f * b[col]
		}
	}
	if cap(x) < n {
		x = make([]float64, n)
	}
	x = x[:n]
	for r := n - 1; r >= 0; r-- {
		sum := b[r]
		for k := r + 1; k < n; k++ {
			sum -= a[r][k] * x[k]
		}
		x[r] = sum / a[r][r]
		if math.IsNaN(x[r]) || math.IsInf(x[r], 0) {
			return nil, ErrSingular
		}
	}
	return x, nil
}

// lsqScratch owns the normal-equation buffers one fitting worker reuses
// across weightedLSQ calls: the k×k system, its right-hand side, the
// equilibration norms and the solution. Everything is fully overwritten
// per call, so reuse never changes a result.
type lsqScratch struct {
	ata     [][]float64
	ataBack [9]float64 // k ≤ 3 backing store for the system rows
	atb     [3]float64
	norm    [3]float64
	x       [3]float64
}

// system returns the scratch's k×k normal-equation matrix, zeroed.
func (sc *lsqScratch) system(k int) [][]float64 {
	if cap(sc.ata) < k {
		sc.ata = make([][]float64, k)
	}
	sc.ata = sc.ata[:k]
	for i := range sc.ataBack {
		sc.ataBack[i] = 0
	}
	for r := 0; r < k; r++ {
		sc.ata[r] = sc.ataBack[r*3 : r*3+k]
	}
	return sc.ata
}

// weightedLSQ solves the weighted linear least-squares problem
// min Σ_i (w_i·(Σ_k x_k·feat[k][i] − y_i))² via the normal equations with a
// tiny ridge for rank safety. feat is column-major: feat[k] is feature k's
// values across samples. A non-nil scratch supplies the (at most 3×3)
// system buffers; the returned solution then lives in the scratch and is
// only valid until the next call.
func weightedLSQ(feat [][]float64, y, w []float64, sc *lsqScratch) ([]float64, error) {
	k := len(feat)
	if k == 0 {
		return nil, errors.New("mlfit: no features")
	}
	n := len(y)
	var ata [][]float64
	var atb, norm, x []float64
	if sc != nil && k <= 3 {
		ata = sc.system(k)
		atb = sc.atb[:k]
		norm = sc.norm[:k]
		x = sc.x[:k]
		for i := range atb {
			atb[i] = 0
		}
	} else {
		ata = make([][]float64, k)
		for i := range ata {
			ata[i] = make([]float64, k)
		}
		atb = make([]float64, k)
		norm = make([]float64, k)
		x = nil
	}
	// The accumulation below is the generic triangle
	//
	//	for r: atb[r] += w²·f_r·y;  for c ≥ r: ata[r][c] += w²·f_r·f_c
	//
	// unrolled per feature count with register accumulators. The additions
	// run in the exact order of the generic loop, so the sums — and every
	// coefficient derived from them — are bit-identical; only the
	// per-sample slice indexing is gone. k is 1..3 for the function family
	// (Fit's derived features), with a generic fallback for other callers.
	switch k {
	case 1:
		f0 := feat[0]
		var a00, b0 float64
		for i := 0; i < n; i++ {
			w2 := w[i] * w[i]
			v0 := f0[i]
			b0 += w2 * v0 * y[i]
			a00 += w2 * v0 * v0
		}
		ata[0][0] = a00
		atb[0] = b0
	case 2:
		f0, f1 := feat[0], feat[1]
		var a00, a01, a11, b0, b1 float64
		for i := 0; i < n; i++ {
			w2 := w[i] * w[i]
			v0, v1 := f0[i], f1[i]
			b0 += w2 * v0 * y[i]
			a00 += w2 * v0 * v0
			a01 += w2 * v0 * v1
			b1 += w2 * v1 * y[i]
			a11 += w2 * v1 * v1
		}
		ata[0][0], ata[0][1], ata[1][1] = a00, a01, a11
		atb[0], atb[1] = b0, b1
	case 3:
		f0, f1, f2 := feat[0], feat[1], feat[2]
		var a00, a01, a02, a11, a12, a22, b0, b1, b2 float64
		for i := 0; i < n; i++ {
			w2 := w[i] * w[i]
			v0, v1, v2 := f0[i], f1[i], f2[i]
			b0 += w2 * v0 * y[i]
			a00 += w2 * v0 * v0
			a01 += w2 * v0 * v1
			a02 += w2 * v0 * v2
			b1 += w2 * v1 * y[i]
			a11 += w2 * v1 * v1
			a12 += w2 * v1 * v2
			b2 += w2 * v2 * y[i]
			a22 += w2 * v2 * v2
		}
		ata[0][0], ata[0][1], ata[0][2] = a00, a01, a02
		ata[1][1], ata[1][2] = a11, a12
		ata[2][2] = a22
		atb[0], atb[1], atb[2] = b0, b1, b2
	default:
		for i := 0; i < n; i++ {
			w2 := w[i] * w[i]
			for r := 0; r < k; r++ {
				fr := feat[r][i]
				atb[r] += w2 * fr * y[i]
				for c := r; c < k; c++ {
					ata[r][c] += w2 * fr * feat[c][i]
				}
			}
		}
	}
	for r := 0; r < k; r++ {
		for c := 0; c < r; c++ {
			ata[r][c] = ata[c][r]
		}
	}
	// Column equilibration: scale each feature to unit weighted norm
	// before solving. Feature magnitudes here span ~12 orders (inv(r)
	// against r·n-weighted id(s)), which would otherwise wreck the
	// conditioning of the normal equations.
	for r := 0; r < k; r++ {
		norm[r] = math.Sqrt(ata[r][r])
		if norm[r] == 0 || math.IsNaN(norm[r]) {
			norm[r] = 1
		}
	}
	for r := 0; r < k; r++ {
		for c := 0; c < k; c++ {
			ata[r][c] /= norm[r] * norm[c]
		}
		atb[r] /= norm[r]
		ata[r][r] += 1e-12 // ridge on the equilibrated (unit) diagonal
	}
	x, err := solveDenseInto(ata, atb, x)
	if err != nil {
		return nil, err
	}
	for r := 0; r < k; r++ {
		x[r] /= norm[r]
	}
	return x, nil
}
