package trainer

import (
	"math"
	"testing"

	"github.com/hpcsched/gensched/internal/dist"
	"github.com/hpcsched/gensched/internal/lublin"
	"github.com/hpcsched/gensched/internal/sched"
	"github.com/hpcsched/gensched/internal/sim"
	"github.com/hpcsched/gensched/internal/workload"
)

func defaultParams64() lublin.Params { return lublin.DefaultParams(64) }

// oracleTrial replays one permutation trial exactly the way the
// pre-pooling implementation did — a fresh sim.Run per trial with a
// sched.FixedOrder rank map — and returns its AVEbsld over Q.
func oracleTrial(t Tuple, tau float64, k, q int, seed uint64) (float64, error) {
	var jobs = append(append([]workload.Job{}, t.S...), t.Q...)
	qIDs := make(map[int]bool, len(t.Q))
	for _, j := range t.Q {
		qIDs[j.ID] = true
	}
	rng := dist.New(dist.Split(seed, uint64(k)))
	first := k % q
	perm := make([]int, q)
	perm[0] = first
	idx := 1
	for i := 0; i < q; i++ {
		if i != first {
			perm[idx] = i
			idx++
		}
	}
	rest := perm[1:]
	rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	rank := make(map[int]int, len(jobs))
	for i, j := range t.S {
		rank[j.ID] = i
	}
	base := len(t.S)
	for pos, qi := range perm {
		rank[t.Q[qi].ID] = base + pos
	}
	res, err := sim.Run(sim.Platform{Cores: t.Cores}, jobs, sim.Options{
		Policy: sched.FixedOrder(rank),
		Tau:    tau,
	})
	if err != nil {
		return 0, err
	}
	return sim.AveBsld(res.Stats, func(s sim.JobStats) bool { return qIDs[s.Job.ID] }), nil
}

// scoreTupleOracle reduces oracle trials exactly as ScoreTuple reduces
// pooled ones.
func scoreTupleOracle(t *testing.T, tuple Tuple, cfg TrialConfig) *TupleScores {
	t.Helper()
	q := len(tuple.Q)
	perTask := (cfg.Trials + q - 1) / q
	total := perTask * q
	aveBsld := make([]float64, total)
	for k := 0; k < total; k++ {
		v, err := oracleTrial(tuple, cfg.Tau, k, q, cfg.Seed)
		if err != nil {
			t.Fatal(err)
		}
		aveBsld[k] = v
	}
	sums := make([]float64, q)
	var grand float64
	for k, v := range aveBsld {
		sums[k%q] += v
		grand += v
	}
	out := &TupleScores{Tuple: tuple, Scores: make([]float64, q)}
	for i := range sums {
		score := 0.0
		if grand > 0 {
			score = sums[i] / grand
		}
		out.Scores[i] = score
	}
	return out
}

// TestScoreTuplePooledMatchesSimRun is the differential harness for the
// pooled trial engine: scores must be bit-identical to the fresh
// sim.Run-per-trial path it replaced, for dense sequential job IDs, for
// sparse IDs beyond the dense-table limit (the map fallback), and with
// a non-default tau.
func TestScoreTuplePooledMatchesSimRun(t *testing.T) {
	base, err := GenerateTuple(TupleSpec{SSize: 8, QSize: 12, Cores: 64, Params: defaultParams64()}, 17)
	if err != nil {
		t.Fatal(err)
	}
	sparse := Tuple{Cores: base.Cores}
	for _, j := range base.S {
		j.ID = j.ID*1_000_003 + denseIDLimit // far beyond the dense table
		sparse.S = append(sparse.S, j)
	}
	for _, j := range base.Q {
		j.ID = j.ID*1_000_003 + denseIDLimit
		sparse.Q = append(sparse.Q, j)
	}
	cases := []struct {
		name  string
		tuple Tuple
		cfg   TrialConfig
	}{
		{"dense", base, TrialConfig{Trials: 36, Seed: 5}},
		{"dense-tau", base, TrialConfig{Trials: 24, Seed: 9, Tau: 60}},
		{"sparse-ids", sparse, TrialConfig{Trials: 24, Seed: 5}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ScoreTuple(tc.tuple, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := scoreTupleOracle(t, tc.tuple, tc.cfg)
			for i := range want.Scores {
				if math.Float64bits(got.Scores[i]) != math.Float64bits(want.Scores[i]) {
					t.Fatalf("task %d: pooled score %v != oracle %v", i, got.Scores[i], want.Scores[i])
				}
			}
		})
	}
}

// TestScoreTupleValidatesUpFront pins the hoisted validation: a malformed
// tuple fails before any trial runs.
func TestScoreTupleValidatesUpFront(t *testing.T) {
	tuple, err := GenerateTuple(TupleSpec{SSize: 2, QSize: 4, Cores: 64, Params: defaultParams64()}, 3)
	if err != nil {
		t.Fatal(err)
	}
	tuple.Q[1].Cores = tuple.Cores + 1 // larger than the machine
	if _, err := ScoreTuple(tuple, TrialConfig{Trials: 8, Seed: 1}); err == nil {
		t.Fatal("oversized job accepted")
	}
}

// TestScoreTupleRejectsNonPositiveCores pins the guard the per-trial
// sim.Run used to provide: a machine without cores is an error, never a
// silent batch of uniform garbage scores.
func TestScoreTupleRejectsNonPositiveCores(t *testing.T) {
	tuple, err := GenerateTuple(TupleSpec{SSize: 2, QSize: 4, Cores: 64, Params: defaultParams64()}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, cores := range []int{0, -8} {
		tuple.Cores = cores
		if _, err := ScoreTuple(tuple, TrialConfig{Trials: 8, Seed: 1}); err == nil {
			t.Fatalf("cores=%d accepted", cores)
		}
	}
}

// TestScoreTupleRejectsDuplicateIDs pins the uniqueness check: ranks and
// scores are keyed by job ID, so an S/Q ID collision is an input error,
// not a silent semantics change.
func TestScoreTupleRejectsDuplicateIDs(t *testing.T) {
	tuple, err := GenerateTuple(TupleSpec{SSize: 2, QSize: 4, Cores: 64, Params: defaultParams64()}, 3)
	if err != nil {
		t.Fatal(err)
	}
	tuple.S[0].ID = tuple.Q[2].ID
	if _, err := ScoreTuple(tuple, TrialConfig{Trials: 8, Seed: 1}); err == nil {
		t.Fatal("duplicate job ID accepted")
	}
}

// TestScoreTupleNegativeIDs drives the pooled path with negative job IDs —
// they must take the map fallback (not panic on a negative slice index)
// and still match the sim.Run oracle bit for bit.
func TestScoreTupleNegativeIDs(t *testing.T) {
	base, err := GenerateTuple(TupleSpec{SSize: 4, QSize: 6, Cores: 64, Params: defaultParams64()}, 11)
	if err != nil {
		t.Fatal(err)
	}
	neg := Tuple{Cores: base.Cores}
	for _, j := range base.S {
		j.ID = -j.ID
		neg.S = append(neg.S, j)
	}
	for _, j := range base.Q {
		j.ID = -j.ID
		neg.Q = append(neg.Q, j)
	}
	cfg := TrialConfig{Trials: 18, Seed: 2}
	got, err := ScoreTuple(neg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := scoreTupleOracle(t, neg, cfg)
	for i := range want.Scores {
		if math.Float64bits(got.Scores[i]) != math.Float64bits(want.Scores[i]) {
			t.Fatalf("task %d: pooled score %v != oracle %v", i, got.Scores[i], want.Scores[i])
		}
	}
}
