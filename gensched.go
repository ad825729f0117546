// Package gensched reproduces "Obtaining Dynamic Scheduling Policies with
// Simulation and Machine Learning" (Carastan-Santos & de Camargo, SC'17):
// a complete pipeline that (1) simulates the scheduling behavior of rigid
// parallel tasks on a homogeneous cluster, (2) scores tasks by how much
// running them first improves the average bounded slowdown of a queue,
// (3) fits simple nonlinear functions to those scores by weighted
// regression, and (4) uses the best functions (F1–F4) as dynamic
// scheduling policies that outperform classical and ad-hoc heuristics.
//
// # Scenarios, grids and the Runner
//
// The paper's contribution is not one simulation but a grid of them —
// policies × loads × seeds × backfill modes × platforms — so the primary
// API is declarative. A Scenario describes one experiment; a Grid is the
// cartesian product of a base scenario and axes; a Runner executes the
// grid on a bounded worker pool with context cancellation:
//
//	sc, _ := gensched.NewScenario(
//		gensched.WithCores(256),
//		gensched.WithLublin(15, 1.0), // 15-day sequences, offered load 1.0
//		gensched.WithSequences(10),
//	)
//	g, _ := gensched.NewGrid(sc,
//		gensched.OverPolicies("FCFS", "SPT", "F1"),
//		gensched.OverSeeds(1, 2, 3),
//	)
//	res, _ := (&gensched.Runner{}).Run(ctx, g)
//	fmt.Print(res.Format())
//
// Execution is deterministic for any worker count: every cell derives
// its workload seed with SplitSeed from the cell's axis coordinates, and
// cells that differ only in policy or backfill mode schedule identical
// job sequences (the paper's paired-comparison design).
//
// # Subsystems
//
// The package is the public facade; the subsystems live in internal/
// packages and are re-exported here as needed:
//
//   - the scheduling core shared by both engines: event heap, queue and
//     running-set orders, backfilling, invariant checks
//     (internal/schedcore),
//   - a discrete-event cluster simulator with EASY and conservative
//     backfilling (internal/sim),
//   - the incremental online scheduler behind the Cluster wrapper and
//     the cmd/schedd daemon (internal/online),
//   - the policy zoo: FCFS, SPT, LPT, SAF, WFP3, UNICEF, F1–F4, and
//     SLURM-style multifactor (internal/sched),
//   - the Lublin–Feitelson workload model and Tsafrir estimate model
//     (internal/lublin, internal/tsafrir),
//   - the deterministic RNG and distribution kernel (internal/dist) and
//     the shared parallel execution engine (internal/runner),
//   - SWF trace I/O (internal/workload),
//   - the trial/score training engine (internal/trainer),
//   - the 576-function enumeration and Levenberg–Marquardt regression
//     (internal/expr, internal/mlfit),
//   - synthetic stand-ins for the Curie/Intrepid/SDSC/CTC traces
//     (internal/traces), and
//   - drivers for every table and figure of the paper
//     (internal/experiments), exercised by bench_test.go and cmd/paperrepro.
package gensched

import (
	"fmt"
	"io"

	"github.com/hpcsched/gensched/internal/dist"
	"github.com/hpcsched/gensched/internal/expr"
	"github.com/hpcsched/gensched/internal/lublin"
	"github.com/hpcsched/gensched/internal/mlfit"
	"github.com/hpcsched/gensched/internal/sched"
	"github.com/hpcsched/gensched/internal/sim"
	"github.com/hpcsched/gensched/internal/trainer"
	"github.com/hpcsched/gensched/internal/tsafrir"
	"github.com/hpcsched/gensched/internal/workload"
)

// Version identifies the library release.
const Version = "1.0.0"

// Core model types, re-exported.
type (
	// Job is a rigid task: arrival time, actual and estimated processing
	// times, and a core requirement (§3.1 of the paper).
	Job = workload.Job
	// Trace is an ordered job collection with its platform size.
	Trace = workload.Trace
	// Policy scores waiting tasks; lower scores run first.
	Policy = sched.Policy
	// JobView is what a policy sees about a waiting task.
	JobView = sched.JobView
	// SimOptions configures a simulation run.
	SimOptions = sim.Options
	// SimResult is the outcome of a simulation run.
	SimResult = sim.Result
	// BackfillMode selects none, EASY (aggressive) or conservative.
	BackfillMode = sim.BackfillMode
	// Sample is one (r, n, s, score) training observation.
	Sample = mlfit.Sample
	// FitResult is one fitted candidate function with its Eq. 5 rank.
	FitResult = mlfit.Result
	// Func is a nonlinear function of the paper's family.
	Func = expr.Func
)

// Backfill modes, re-exported.
const (
	BackfillNone         = sim.BackfillNone
	BackfillEASY         = sim.BackfillEASY
	BackfillConservative = sim.BackfillConservative
)

// Policies returns the paper's eight evaluation policies in figure order:
// FCFS, WFP3, UNICEF, SPT, F4, F3, F2, F1.
func Policies() []Policy { return sched.Registry() }

// PolicyByName resolves a policy by report name (also accepts the paper's
// abbreviations WFP, UNI, and EASY).
func PolicyByName(name string) (Policy, error) { return sched.ByName(name) }

// MustPolicy is PolicyByName that panics on unknown names; convenient in
// examples and tests.
func MustPolicy(name string) Policy {
	p, err := sched.ByName(name)
	if err != nil {
		panic(err)
	}
	return p
}

// ParsePolicy builds a policy from the compact textual form of a function
// of the paper's family, e.g. "log10(r)*n + 870*log10(s)" — the syntax
// the fitting tools print — so learned policies round-trip through plain
// configuration strings.
func ParsePolicy(name, src string) (Policy, error) {
	return sched.ParseExpr(name, src)
}

// ApplyEstimates overwrites every job's user estimate with a draw from the
// Tsafrir model (canonical round values, e >= r).
func ApplyEstimates(jobs []Job, seed uint64) error {
	return tsafrir.Apply(tsafrir.Default(), jobs, seed)
}

// ReadSWF parses a trace in Standard Workload Format.
func ReadSWF(r io.Reader) (*Trace, error) { return workload.ParseSWF(r) }

// WriteSWF writes a trace in Standard Workload Format.
func WriteSWF(w io.Writer, t *Trace) error { return workload.WriteSWF(w, t) }

// TrainingConfig scales the score-distribution generation pipeline (§3.2).
// The zero value of every field selects the paper's (reduced-scale)
// defaults: 8 tuples × 4096 trials with |S|=16, |Q|=32 on 256 cores.
type TrainingConfig struct {
	Tuples  int // number of (S, Q) tuples (more = smoother distribution)
	Trials  int // permutation trials per tuple (paper: 256k)
	Seed    uint64
	SSize   int // |S|: initial resource-state tasks per tuple (0 = 16)
	QSize   int // |Q|: measured tasks per tuple (0 = 32)
	Cores   int // training machine size (0 = 256)
	Workers int // parallel workers (0 = GOMAXPROCS)
}

// GenerateScoreDistribution runs the paper's simulation scheme and
// returns the training samples (r, n, s, score).
func GenerateScoreDistribution(cfg TrainingConfig) ([]Sample, error) {
	if cfg.Tuples <= 0 {
		cfg.Tuples = 8
	}
	if cfg.Trials <= 0 {
		cfg.Trials = 4096
	}
	spec := trainer.DefaultSpec()
	if cfg.SSize > 0 {
		spec.SSize = cfg.SSize
	}
	if cfg.QSize > 0 {
		spec.QSize = cfg.QSize
	}
	if cfg.Cores > 0 {
		spec.Cores = cfg.Cores
		spec.Params = lublin.DefaultParams(cfg.Cores)
	}
	return trainer.ScoreDistribution(cfg.Tuples, spec,
		trainer.TrialConfig{Trials: cfg.Trials, Workers: cfg.Workers}, cfg.Seed)
}

// FitPolicies fits all 576 candidate nonlinear functions to the samples
// with the paper's r·n weighting and returns the top distinct fits as
// ready-to-use policies named L1, L2, ... alongside the fit details.
// workers bounds the fitting parallelism (0 = GOMAXPROCS), matching the
// Workers field callers already pass to GenerateScoreDistribution — the
// result never depends on it.
func FitPolicies(samples []Sample, top, workers int) ([]Policy, []FitResult, error) {
	if top <= 0 {
		top = 4
	}
	ranked, err := mlfit.FitAll(samples, mlfit.Options{Workers: workers})
	if err != nil {
		return nil, nil, err
	}
	best := mlfit.TopDistinct(ranked, top)
	policies := make([]Policy, len(best))
	for i, b := range best {
		f, _ := b.Func.Simplified()
		policies[i] = sched.Expr(policyName(i), f)
	}
	return policies, best, nil
}

func policyName(i int) string { return fmt.Sprintf("L%d", i+1) }

// SplitSeed derives independent sub-seeds, re-exported for callers that
// fan simulations out in parallel and want reproducibility.
func SplitSeed(seed, stream uint64) uint64 { return dist.Split(seed, stream) }

// SliceWindows cuts a trace into count disjoint sequences of the given
// length in days, rebasing submit times — the shape of the paper's dynamic
// scheduling experiments (ten fifteen-day sequences).
func SliceWindows(t *Trace, days float64, count int) ([][]Job, error) {
	return workload.Windows(t, days*24*3600, count, 1)
}
