// Package trainer implements the paper's simulation scheme (§3.2): it
// builds tuples of task sets (S, Q) from the Lublin–Feitelson model,
// simulates many random permutations of Q being served after S ("trials"),
// scores every task of Q by Eq. 3 — the normalized sum of average bounded
// slowdowns over the trials where that task ran first — and aggregates the
// (r, n, s, score) samples that the regression of §3.3 consumes.
//
// Trials are balanced: each task of Q is placed first in exactly
// trials/|Q| permutations, making Σ_t score(t) = 1 an exact invariant.
// All stochastic choices derive from explicit seeds, so distributions are
// reproducible for any worker count.
package trainer

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"github.com/hpcsched/gensched/internal/dist"
	"github.com/hpcsched/gensched/internal/lublin"
	"github.com/hpcsched/gensched/internal/mlfit"
	"github.com/hpcsched/gensched/internal/runner"
	"github.com/hpcsched/gensched/internal/sched"
	"github.com/hpcsched/gensched/internal/schedcore"
	"github.com/hpcsched/gensched/internal/sim"
	"github.com/hpcsched/gensched/internal/workload"
)

// TupleSpec describes how to draw one (S, Q) tuple. The paper uses
// |S| = 16, |Q| = 32 on a 256-core machine.
type TupleSpec struct {
	SSize, QSize int
	Cores        int
	Params       lublin.Params // workload model for the job stream
}

// DefaultSpec returns the paper's training configuration.
func DefaultSpec() TupleSpec {
	return TupleSpec{SSize: 16, QSize: 32, Cores: 256, Params: lublin.DefaultParams(256)}
}

// Tuple is one (S, Q) pair: S establishes a realistic initial resource
// state; Q is the measured task set.
type Tuple struct {
	S, Q  []workload.Job
	Cores int
}

// GenerateTuple draws the tuple from a fresh Lublin stream: the first
// |S| jobs become S (released at t = 0, served in arrival order), the next
// |Q| jobs keep their model arrival times and become Q.
func GenerateTuple(spec TupleSpec, seed uint64) (Tuple, error) {
	if spec.SSize < 0 || spec.QSize <= 0 {
		return Tuple{}, fmt.Errorf("trainer: need positive |Q| and non-negative |S| (got %d, %d)", spec.SSize, spec.QSize)
	}
	gen, err := lublin.NewGenerator(spec.Params, spec.Cores, seed)
	if err != nil {
		return Tuple{}, err
	}
	jobs := gen.Jobs(spec.SSize + spec.QSize)
	t := Tuple{Cores: spec.Cores}
	for i, j := range jobs {
		if i < spec.SSize {
			j.Submit = 0
			t.S = append(t.S, j)
		} else {
			t.Q = append(t.Q, j)
		}
	}
	return t, nil
}

// TrialConfig controls the permutation trials of one tuple.
type TrialConfig struct {
	// Trials is the total number of permutations to simulate; it is
	// rounded up to a multiple of |Q| so every task leads the same number
	// of permutations. The paper settles on 256k (Fig. 2).
	Trials int
	// Tau is the bounded-slowdown constant (0 = paper's 10s).
	Tau float64
	// Workers bounds parallelism (0 = GOMAXPROCS).
	Workers int
	// Seed drives permutation generation.
	Seed uint64
}

// Errors from the trial engine.
var (
	ErrNoTrials = errors.New("trainer: trial count must be positive")
	ErrEmptyQ   = errors.New("trainer: tuple has no Q tasks")
)

// TupleScores is the trial score distribution of one tuple: Scores[i] is
// Eq. 3 for task Q[i]; Samples are the same values keyed by the task's
// (r, n, s) for the regression set Tr.
type TupleScores struct {
	Tuple   Tuple
	Scores  []float64
	Samples []mlfit.Sample
}

// ScoreTuple runs balanced permutation trials of the tuple and returns the
// per-task trial score distribution.
func ScoreTuple(t Tuple, cfg TrialConfig) (*TupleScores, error) {
	if cfg.Trials <= 0 {
		return nil, ErrNoTrials
	}
	q := len(t.Q)
	if q == 0 {
		return nil, ErrEmptyQ
	}
	perTask := (cfg.Trials + q - 1) / q
	total := perTask * q

	// aveBsld[k] is AVEbsld of trial k; trial k puts task Q[k%q] first.
	// Accumulating per-trial then reducing sequentially keeps the result
	// bit-identical for every worker count. The fan-out goes through the
	// shared runner pool; the trial runner itself is read-only state, so
	// one instance serves every worker, and each trial borrows a pooled
	// engine + buffer set instead of allocating its own.
	aveBsld := make([]float64, total)
	tr, err := newTrialRunner(t, cfg.Tau)
	if err != nil {
		return nil, err
	}
	err = runner.Run(context.Background(), cfg.Workers, total, func(_ context.Context, k int) error {
		st := trialPool.Get().(*trialState)
		aveBsld[k] = tr.run(st, k, q, cfg.Seed)
		trialPool.Put(st)
		return nil
	})
	if err != nil {
		return nil, err
	}

	sums := make([]float64, q)
	var grand float64
	for k, v := range aveBsld {
		sums[k%q] += v
		grand += v
	}
	out := &TupleScores{Tuple: t, Scores: make([]float64, q), Samples: make([]mlfit.Sample, q)}
	for i := range sums {
		score := 0.0
		if grand > 0 {
			score = sums[i] / grand
		}
		out.Scores[i] = score
		out.Samples[i] = mlfit.Sample{
			R:     t.Q[i].Runtime,
			N:     float64(t.Q[i].Cores),
			S:     t.Q[i].Submit,
			Score: score,
		}
	}
	return out, nil
}

// trialRunner holds the shared read-only state for simulating trials; a
// single instance is safe for concurrent run calls. Jobs are validated
// once at construction — the per-trial fast path assumes a well-formed
// tuple.
type trialRunner struct {
	tuple  Tuple
	tau    float64
	jobs   []workload.Job // S followed by Q, stable job IDs
	qStart int            // index of the first Q job in jobs
	maxID  int            // largest job ID, for the dense rank table
	dense  bool           // job IDs index a slice rank table (all in [0, denseIDLimit))
}

// denseIDLimit bounds the dense rank table: tuples drawn by GenerateTuple
// or SampleTuple carry small sequential IDs, but ScoreTuple accepts any
// Tuple, and a caller feeding archive jobs with million-scale IDs must not
// make every pooled trial state carry a million-entry table.
const denseIDLimit = 1 << 16

func newTrialRunner(t Tuple, tau float64) (*trialRunner, error) {
	if t.Cores <= 0 {
		// The per-trial sim.Run used to reject this; without the guard a
		// zero-core engine "schedules" nothing and every task keeps
		// Start=0, yielding uniform garbage scores instead of an error.
		return nil, sim.ErrNoCores
	}
	tr := &trialRunner{tuple: t, tau: tau, qStart: len(t.S), dense: true}
	tr.jobs = append(tr.jobs, t.S...)
	tr.jobs = append(tr.jobs, t.Q...)
	seen := make(map[int]bool, len(tr.jobs))
	for i := range tr.jobs {
		if err := tr.jobs[i].Validate(t.Cores); err != nil {
			return nil, fmt.Errorf("trainer: %w", err)
		}
		id := tr.jobs[i].ID
		// Ranks (and the trial scores) are keyed by job ID; a duplicate
		// would make one rank silently win over another.
		if seen[id] {
			return nil, fmt.Errorf("trainer: duplicate job id %d in tuple", id)
		}
		seen[id] = true
		// Every ID must be a valid slice index for the dense table;
		// negative or huge IDs fall back to the map.
		if id < 0 || id >= denseIDLimit {
			tr.dense = false
		} else if id > tr.maxID {
			tr.maxID = id
		}
	}
	return tr, nil
}

// trialState is one trial's working set — the scheduling engine and the
// permutation/rank buffers — recycled through a pool so a full ScoreTuple
// (and the retraining rounds stacking many of them) stays allocation-flat
// after the first few trials warm the pool.
type trialState struct {
	eng     *schedcore.Engine
	rng     dist.RNG
	perm    []int
	rank    []int       // job ID → permutation rank; -1 = unranked
	rankMap map[int]int // fallback for sparse job IDs
}

var trialPool = sync.Pool{New: func() any { return &trialState{} }}

// Name, Score, TimeVarying and ScoreID make trialState itself the
// fixed-order policy of its current trial, reading the rank buffers in
// place. The scores reproduce sched.FixedOrder exactly: the rank for
// known IDs, a beyond-any-rank value ordered by submit time for unknown
// ones (unreachable for tuple jobs, which are all ranked).
func (st *trialState) Name() string                  { return "FIXED" }
func (st *trialState) TimeVarying() bool             { return false }
func (st *trialState) Score(v sched.JobView) float64 { return v.Submit }

func (st *trialState) ScoreID(id int, v sched.JobView) float64 {
	if st.rankMap != nil {
		if r, ok := st.rankMap[id]; ok {
			return float64(r)
		}
	} else if id >= 0 && id < len(st.rank) {
		if r := st.rank[id]; r >= 0 {
			return float64(r)
		}
	}
	return math.MaxInt32 + v.Submit
}

var _ sched.PolicyWithID = (*trialState)(nil)

// setRank records one job's permutation rank.
func (st *trialState) setRank(id, r int) {
	if st.rankMap != nil {
		st.rankMap[id] = r
	} else {
		st.rank[id] = r
	}
}

// prepare sizes the state's buffers for a trial of the runner's tuple.
// Only the tuple's own job IDs are reset in the dense table — O(jobs),
// not O(maxID) — which is sound because run() then writes every one of
// those IDs (they are unique, checked at construction) and the engine
// never asks ScoreID about any other ID; entries left over from other
// tuples are simply never read.
func (st *trialState) prepare(tr *trialRunner, q int) {
	if cap(st.perm) < q {
		st.perm = make([]int, q)
	}
	st.perm = st.perm[:q]
	if tr.dense {
		st.rankMap = nil
		if cap(st.rank) < tr.maxID+1 {
			st.rank = make([]int, tr.maxID+1)
		}
		st.rank = st.rank[:tr.maxID+1]
		for i := range tr.jobs {
			st.rank[tr.jobs[i].ID] = -1
		}
	} else {
		if st.rankMap == nil {
			st.rankMap = make(map[int]int, len(tr.jobs))
		} else {
			clear(st.rankMap)
		}
	}
}

// run simulates trial k: task Q[k%q] first, the rest shuffled from the
// trial's own sub-seed, S served ahead of all Q in arrival order. The
// schedule and the returned AVEbsld are bit-identical to running the
// trial through sim.Run with a sched.FixedOrder policy — the pooled
// engine re-establishes every decision input from scratch, and the
// bounded-slowdown sum (sim.MeanBsld) visits the Q tasks in the same
// input order sim.AveBsld walks the job statistics. (Job IDs are
// unique, enforced by newTrialRunner, so "the Q tasks" is the same set
// under either the old ID-keyed filter or the index range used here.)
func (tr *trialRunner) run(st *trialState, k, q int, seed uint64) float64 {
	// Reseeding the pooled generator reproduces newTrialRNG's stream
	// without the per-trial allocation.
	rng := &st.rng
	rng.Reseed(dist.Split(seed, uint64(k)))
	first := k % q
	st.prepare(tr, q)
	// perm = [first] ++ shuffle(others).
	perm := st.perm
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

	for i, j := range tr.tuple.S {
		st.setRank(j.ID, i) // S keeps arrival order ahead of every Q task
	}
	for pos, qi := range perm {
		st.setRank(tr.tuple.Q[qi].ID, tr.qStart+pos)
	}

	cfg := schedcore.Config{Policy: st}
	if st.eng == nil {
		st.eng = schedcore.NewEngine(tr.tuple.Cores, cfg)
	} else {
		st.eng.Reset(tr.tuple.Cores, cfg)
	}
	eng := st.eng
	eng.Grow(len(tr.jobs))
	for i := range tr.jobs {
		eng.PushArrival(eng.AddTask(tr.jobs[i]))
	}
	eng.RunBatch()

	// Eq. 2 over the Q tasks (task index i is input index i, so the Q
	// tasks are exactly indices qStart..len(jobs)-1, in input order).
	return sim.MeanBsld(eng, tr.qStart, len(tr.jobs), tr.tau)
}
