package gensched

import (
	"context"
	"fmt"
	"strings"

	"github.com/hpcsched/gensched/internal/experiments"
	"github.com/hpcsched/gensched/internal/sched"
	"github.com/hpcsched/gensched/internal/traces"
	"github.com/hpcsched/gensched/internal/workload"
)

// Scenario is a declarative description of one simulation experiment: a
// platform, a workload source, the scheduling conditions, and the
// experiment dimensions (sequence count and length). Build one with
// NewScenario and functional options:
//
//	sc, err := gensched.NewScenario(
//		gensched.WithCores(256),
//		gensched.WithLublin(15, 1.0),
//		gensched.WithPolicy("F1"),
//		gensched.WithEASY(),
//	)
//
// A Scenario is a value: grids copy it per cell and override single
// fields, so a fully-specified cell is always inspectable.
type Scenario struct {
	// Name labels the scenario in results and reports.
	Name string
	// Cores is the machine size. Workload sources with an intrinsic
	// platform (WithPlatform, WithTrace) supply their own size unless a
	// later WithCores overrides it explicitly.
	Cores int
	// Source produces the job sequences. Defaults to the Lublin model.
	Source WorkloadSource
	// Policy orders the waiting queue.
	Policy Policy
	// Backfill selects none, EASY (aggressive) or conservative.
	Backfill BackfillMode
	// UseEstimates makes scheduling decisions see user estimates instead
	// of actual runtimes (execution always takes the actual runtime).
	UseEstimates bool
	// Tau is the bounded-slowdown constant; 0 means the paper's 10 s.
	Tau float64
	// KillAtEstimate truncates execution at the user estimate.
	KillAtEstimate bool
	// Check enables runtime invariant checking in every simulation of the
	// scenario (sim.Options.Check): cores never oversubscribed, no start
	// before submission, the EASY head never delayed, conservative
	// reservations honored, plus a post-run schedule audit against the
	// reference checker. A violation fails the run with a descriptive
	// error. Costs a small constant factor; intended for engine
	// development, CI and debugging rather than large production grids.
	Check bool
	// Load is the target offered load for generated workloads; 0 keeps
	// the model's natural load.
	Load float64
	// Days is the length of one sequence, in days.
	Days float64
	// Sequences is the number of disjoint sequences scheduled
	// independently (the paper's ten fifteen-day windows).
	Sequences int
	// Seed is the root of all randomness. Grid cells derive sub-seeds
	// from it with SplitSeed, so any worker count reproduces any cell.
	Seed uint64

	// nameSet and coresSet record that WithName / WithCores were given
	// explicitly, so grids know whether a source's intrinsic platform
	// size or generated cell label may fill the field instead.
	nameSet  bool
	coresSet bool
}

// Option configures a Scenario under construction.
type Option func(*Scenario) error

// NewScenario builds a Scenario from the defaults (256 cores, one 1-day
// Lublin sequence at natural load, seed 1, no backfilling) and the given
// options. The policy may be left unset when the scenario seeds a Grid
// with a policy axis.
func NewScenario(opts ...Option) (*Scenario, error) {
	sc := &Scenario{Cores: 256, Days: 1, Sequences: 1, Seed: 1}
	for _, opt := range opts {
		if err := opt(sc); err != nil {
			return nil, err
		}
	}
	if sc.Source == nil {
		sc.Source = Lublin()
	}
	if sc.Name == "" {
		sc.Name = sc.Source.Describe()
	}
	if sc.Sequences <= 0 {
		return nil, fmt.Errorf("gensched: scenario needs at least one sequence, got %d", sc.Sequences)
	}
	if sc.Cores <= 0 && sc.Source.DefaultCores() <= 0 {
		return nil, fmt.Errorf("gensched: scenario needs a positive core count")
	}
	if err := sc.validateJobSizes(); err != nil {
		return nil, err
	}
	return sc, nil
}

// boundedSource lets fixed workload sources (traces, job lists, pre-built
// windows) expose their largest job so scenario construction can reject
// unschedulable workloads up front, with a clear error, instead of
// surfacing sim.Run's rejection from deep inside a grid run. Generated
// sources (Lublin, platforms) size jobs to the machine by construction.
type boundedSource interface {
	maxJobCores() (cores, jobID int)
}

// validateJobSizes rejects scenarios whose fixed workload contains a job
// larger than the machine it will be scheduled on — the condition that
// would otherwise leave the queue head unschedulable forever (the
// "unreachable" branch in the EASY reservation scan).
func (sc *Scenario) validateJobSizes() error {
	return validateSourceJobs(sc.Source, cellCores(sc, sc.Source), sc.Name)
}

// validateSourceJobs checks a fixed source's largest job against the
// machine size; NewScenario and NewGrid both call it so the error
// surfaces at construction, not from deep inside a grid run.
func validateSourceJobs(src WorkloadSource, cores int, name string) error {
	b, ok := src.(boundedSource)
	if !ok || cores <= 0 {
		return nil
	}
	if maxCores, id := b.maxJobCores(); maxCores > cores {
		return fmt.Errorf("gensched: scenario %q: job %d requires %d cores but the platform has %d; "+
			"raise WithCores, repair the trace (Trace.Repair), or drop the job", name, id, maxCores, cores)
	}
	return nil
}

// MustScenario is NewScenario that panics on error; convenient in
// examples and tests.
func MustScenario(opts ...Option) *Scenario {
	sc, err := NewScenario(opts...)
	if err != nil {
		panic(err)
	}
	return sc
}

// WithName labels the scenario; grid cells keep the label as the leading
// segment of their generated cell names.
func WithName(name string) Option {
	return func(sc *Scenario) error { sc.Name = name; sc.nameSet = true; return nil }
}

// WithCores sets the machine size explicitly, overriding a workload
// source's intrinsic size. Order matters: WithTrace and WithPlatform
// reset the machine size to the source's own, so put WithCores after
// them to override.
func WithCores(cores int) Option {
	return func(sc *Scenario) error {
		if cores <= 0 {
			return fmt.Errorf("gensched: WithCores(%d): need a positive core count", cores)
		}
		sc.Cores = cores
		sc.coresSet = true
		return nil
	}
}

// WithLublin selects the Lublin–Feitelson workload model: sequences of
// the given length in days, arrival-calibrated to the given offered load
// (0 keeps the natural load). Tsafrir user estimates are attached.
func WithLublin(days, load float64) Option {
	return func(sc *Scenario) error {
		if days <= 0 {
			return fmt.Errorf("gensched: WithLublin: need a positive sequence length, got %v days", days)
		}
		sc.Source = Lublin()
		sc.Days = days
		sc.Load = load
		return nil
	}
}

// WithPlatform selects one of the paper's Table 5 platform stand-ins by
// name: "curie", "intrepid", "sdsc-blue" or "ctc-sp2" (case-insensitive,
// the short aliases "sdsc" and "ctc" work too). The platform fixes the
// core count and target utilization.
func WithPlatform(name string) Option {
	return func(sc *Scenario) error {
		src, err := Platform(name)
		if err != nil {
			return err
		}
		sc.Source = src
		sc.Cores, sc.coresSet = 0, false // the platform's own size wins
		return nil
	}
}

// WithTrace schedules a fixed trace (e.g. parsed from SWF) instead of a
// generated workload. With one sequence and zero Days the trace is
// scheduled as-is; set WithWindows to slice it.
func WithTrace(t *Trace) Option {
	return func(sc *Scenario) error {
		if t == nil || len(t.Jobs) == 0 {
			return fmt.Errorf("gensched: WithTrace: empty trace")
		}
		sc.Source = FixedTrace(t)
		sc.Cores, sc.coresSet = 0, false // the trace's own size wins
		sc.Days = 0                      // as-is unless WithWindows slices it
		return nil
	}
}

// WithJobs schedules a fixed job list as one sequence.
func WithJobs(name string, cores int, jobs []Job) Option {
	return func(sc *Scenario) error {
		if len(jobs) == 0 {
			return fmt.Errorf("gensched: WithJobs: no jobs")
		}
		if cores <= 0 {
			return fmt.Errorf("gensched: WithJobs: need a positive core count, got %d", cores)
		}
		sc.Source = FixedTrace(&Trace{Name: name, MaxProcs: cores, Jobs: jobs})
		sc.Cores, sc.coresSet = 0, false
		sc.Days = 0
		return nil
	}
}

// WithWindows cuts the workload into count disjoint sequences of the
// given length in days.
func WithWindows(days float64, count int) Option {
	return func(sc *Scenario) error {
		if days <= 0 || count <= 0 {
			return fmt.Errorf("gensched: WithWindows(%v, %d): need positive length and count", days, count)
		}
		sc.Days = days
		sc.Sequences = count
		return nil
	}
}

// WithSequences sets the number of disjoint sequences, keeping the
// sequence length.
func WithSequences(n int) Option {
	return func(sc *Scenario) error {
		if n <= 0 {
			return fmt.Errorf("gensched: WithSequences(%d): need a positive count", n)
		}
		sc.Sequences = n
		return nil
	}
}

// WithPolicy selects the scheduling policy by report name (FCFS, WFP3,
// UNICEF, SPT, F1–F4, ... — anything PolicyByName accepts).
func WithPolicy(name string) Option {
	return func(sc *Scenario) error {
		p, err := sched.ByName(name)
		if err != nil {
			return err
		}
		sc.Policy = p
		return nil
	}
}

// WithCustomPolicy installs a policy value, e.g. one learned by
// FitPolicies or parsed by ParsePolicy.
func WithCustomPolicy(p Policy) Option {
	return func(sc *Scenario) error {
		if p == nil {
			return fmt.Errorf("gensched: WithCustomPolicy(nil)")
		}
		sc.Policy = p
		return nil
	}
}

// WithEASY enables aggressive (EASY) backfilling.
func WithEASY() Option {
	return func(sc *Scenario) error { sc.Backfill = BackfillEASY; return nil }
}

// WithConservative enables conservative backfilling.
func WithConservative() Option {
	return func(sc *Scenario) error { sc.Backfill = BackfillConservative; return nil }
}

// WithBackfill sets the backfill mode explicitly.
func WithBackfill(mode BackfillMode) Option {
	return func(sc *Scenario) error { sc.Backfill = mode; return nil }
}

// WithEstimates makes scheduling decisions use the Tsafrir user
// estimates instead of actual runtimes.
func WithEstimates() Option {
	return func(sc *Scenario) error { sc.UseEstimates = true; return nil }
}

// WithTau sets the bounded-slowdown constant (Eq. 1); the default is the
// paper's 10 seconds.
func WithTau(tau float64) Option {
	return func(sc *Scenario) error {
		if tau <= 0 {
			return fmt.Errorf("gensched: WithTau(%v): need a positive constant", tau)
		}
		sc.Tau = tau
		return nil
	}
}

// WithKillAtEstimate truncates execution at the user estimate, the way
// production resource managers enforce wallclock requests.
func WithKillAtEstimate() Option {
	return func(sc *Scenario) error { sc.KillAtEstimate = true; return nil }
}

// WithCheck turns on runtime invariant checking in every simulation of
// the scenario: the engine validates its own scheduling decisions
// (oversubscription, start-before-submit, queue order, the EASY no-delay
// guarantee, conservative reservation feasibility) and audits the final
// schedule, failing the run on the first violation.
func WithCheck() Option {
	return func(sc *Scenario) error { sc.Check = true; return nil }
}

// WithLoad sets the target offered load for generated workloads.
func WithLoad(load float64) Option {
	return func(sc *Scenario) error {
		if load < 0 {
			return fmt.Errorf("gensched: WithLoad(%v): need a non-negative load", load)
		}
		sc.Load = load
		return nil
	}
}

// WithSeed sets the root seed.
func WithSeed(seed uint64) Option {
	return func(sc *Scenario) error { sc.Seed = seed; return nil }
}

// Run executes the scenario on its own (a one-cell grid) and returns the
// cell result. Workers and cancellation come from the Runner zero value;
// use a Runner directly for more control.
func (sc *Scenario) Run(ctx context.Context) (*CellResult, error) {
	g, err := NewGrid(sc)
	if err != nil {
		return nil, err
	}
	res, err := (&Runner{}).Run(ctx, g)
	if err != nil {
		return nil, err
	}
	return res.Cells[0], nil
}

// Workload is a materialized workload: the job sequences one or more
// grid cells schedule.
type Workload struct {
	Name    string
	Cores   int
	Windows [][]Job
}

// WorkloadRequest carries everything a WorkloadSource needs to build a
// workload deterministically.
type WorkloadRequest struct {
	Cores     int     // requested machine size (0 = source default)
	Days      float64 // sequence length in days (0 = whole trace as one)
	Sequences int     // number of disjoint sequences
	Load      float64 // target offered load (0 = natural)
	Seed      uint64  // fully determines the workload
}

// WorkloadSource produces workloads for scenario cells. Implementations
// must be deterministic in the request: equal requests yield equal
// workloads regardless of worker count or call order.
type WorkloadSource interface {
	// Describe names the source for results and reports.
	Describe() string
	// DefaultCores is the source's intrinsic machine size, or 0 when the
	// scenario must supply one.
	DefaultCores() int
	// Build materializes the workload.
	Build(req WorkloadRequest) (*Workload, error)
}

// Lublin returns the Lublin–Feitelson model workload source: sequences
// drawn from the generator, load-calibrated, with Tsafrir user estimates
// attached. The scenario supplies the machine size.
func Lublin() WorkloadSource { return lublinSource{} }

type lublinSource struct{}

func (lublinSource) Describe() string  { return "lublin" }
func (lublinSource) DefaultCores() int { return 0 }

func (lublinSource) Build(req WorkloadRequest) (*Workload, error) {
	if req.Cores <= 0 {
		return nil, fmt.Errorf("gensched: the Lublin source needs a machine size (WithCores)")
	}
	cfg := experiments.Config{
		Seed:       req.Seed,
		Sequences:  req.Sequences,
		WindowDays: req.Days,
		ModelLoad:  req.Load,
	}
	windows, err := experiments.ModelWindows(cfg, req.Cores)
	if err != nil {
		return nil, err
	}
	return &Workload{
		Name:    fmt.Sprintf("lublin_%d", req.Cores),
		Cores:   req.Cores,
		Windows: windows,
	}, nil
}

// Platform returns the workload source for one of the paper's Table 5
// platform stand-ins, resolved by name (case-insensitive; "curie",
// "intrepid", "sdsc-blue"/"sdsc", "ctc-sp2"/"ctc").
func Platform(name string) (WorkloadSource, error) {
	switch strings.ToLower(name) {
	case "curie":
		return platformSource{traces.Curie}, nil
	case "intrepid":
		return platformSource{traces.Intrepid}, nil
	case "sdsc-blue", "sdsc":
		return platformSource{traces.SDSCBlue}, nil
	case "ctc-sp2", "ctc":
		return platformSource{traces.CTCSP2}, nil
	}
	return nil, fmt.Errorf("gensched: unknown platform %q (want curie, intrepid, sdsc-blue or ctc-sp2)", name)
}

// PlatformNames lists the Table 5 platform stand-ins in the paper's
// order, in the form Platform accepts.
func PlatformNames() []string {
	return []string{"curie", "intrepid", "sdsc-blue", "ctc-sp2"}
}

type platformSource struct {
	spec traces.PlatformSpec
}

func (p platformSource) Describe() string  { return p.spec.Name }
func (p platformSource) DefaultCores() int { return p.spec.Cores }

func (p platformSource) Build(req WorkloadRequest) (*Workload, error) {
	cfg := experiments.Config{
		Seed:       req.Seed,
		Sequences:  req.Sequences,
		WindowDays: req.Days,
	}
	windows, err := experiments.TraceWindows(cfg, p.spec)
	if err != nil {
		return nil, err
	}
	return &Workload{Name: p.spec.Name, Cores: p.spec.Cores, Windows: windows}, nil
}

// FixedWindows returns a source that schedules pre-built job sequences
// exactly as given — the bridge for callers that construct windows
// themselves (suites that share one workload across several conditions).
func FixedWindows(name string, cores int, windows [][]Job) WorkloadSource {
	return windowsSource{name: name, cores: cores, windows: windows}
}

type windowsSource struct {
	name    string
	cores   int
	windows [][]Job
}

func (s windowsSource) Describe() string  { return s.name }
func (s windowsSource) DefaultCores() int { return s.cores }

func (s windowsSource) Build(req WorkloadRequest) (*Workload, error) {
	if len(s.windows) == 0 {
		return nil, fmt.Errorf("gensched: fixed-window source %q has no sequences", s.name)
	}
	// An explicit machine size overrides the source's intrinsic one, the
	// same contract traceSource honors — and the size the build-time
	// job-size validation (cellCores) assumes the cell will run on.
	cores := s.cores
	if req.Cores > 0 {
		cores = req.Cores
	}
	return &Workload{Name: s.name, Cores: cores, Windows: s.windows}, nil
}

func (s windowsSource) maxJobCores() (cores, jobID int) {
	for _, w := range s.windows {
		for _, j := range w {
			if j.Cores > cores {
				cores, jobID = j.Cores, j.ID
			}
		}
	}
	return cores, jobID
}

// FixedTrace returns a source that replays an existing trace. With
// Days = 0 and one sequence the jobs are scheduled exactly as given;
// otherwise the trace is cut into rebased
// disjoint windows like SliceWindows.
func FixedTrace(t *Trace) WorkloadSource { return traceSource{t} }

type traceSource struct {
	trace *Trace
}

func (s traceSource) Describe() string  { return s.trace.Name }
func (s traceSource) DefaultCores() int { return s.trace.MaxProcs }

func (s traceSource) maxJobCores() (cores, jobID int) {
	for _, j := range s.trace.Jobs {
		if j.Cores > cores {
			cores, jobID = j.Cores, j.ID
		}
	}
	return cores, jobID
}

func (s traceSource) Build(req WorkloadRequest) (*Workload, error) {
	cores := s.trace.MaxProcs
	if req.Cores > 0 {
		cores = req.Cores
	}
	w := &Workload{Name: s.trace.Name, Cores: cores}
	if req.Days <= 0 && req.Sequences <= 1 {
		w.Windows = [][]Job{s.trace.Jobs}
		return w, nil
	}
	days := req.Days
	if days <= 0 {
		days = s.trace.Duration() / 86400 / float64(req.Sequences)
	}
	windows, err := workload.Windows(s.trace, days*86400, req.Sequences, 1)
	if err != nil {
		return nil, err
	}
	w.Windows = windows
	return w, nil
}
