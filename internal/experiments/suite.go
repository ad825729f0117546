package experiments

import (
	"fmt"

	"github.com/hpcsched/gensched/internal/dist"
	"github.com/hpcsched/gensched/internal/sched"
	"github.com/hpcsched/gensched/internal/sim"
	"github.com/hpcsched/gensched/internal/traces"
	"github.com/hpcsched/gensched/internal/workload"
)

// Suite holds the workloads for all 18 evaluation scenarios (Figures 4–9,
// summarized by Table 4). Workloads are built once and shared across the
// three conditions (actual runtimes, estimates, backfilling), exactly as
// the paper re-schedules the same sequences under each condition.
type Suite struct {
	Config    Config
	Model256  [][]workload.Job
	Model1024 [][]workload.Job
	Traces    []TraceWorkload
}

// TraceWorkload is one synthetic platform's windows.
type TraceWorkload struct {
	Spec    traces.PlatformSpec
	Windows [][]workload.Job
}

// BuildSuite generates every workload of the evaluation.
func BuildSuite(cfg Config) (*Suite, error) {
	s := &Suite{Config: cfg}
	var err error
	if s.Model256, err = ModelWindows(cfg, 256); err != nil {
		return nil, err
	}
	if s.Model1024, err = ModelWindows(cfg, 1024); err != nil {
		return nil, err
	}
	for _, spec := range traces.All() {
		w, err := TraceWindows(cfg, spec)
		if err != nil {
			return nil, err
		}
		s.Traces = append(s.Traces, TraceWorkload{Spec: spec, Windows: w})
	}
	return s, nil
}

// Scenarios lists all 18 scenarios in the paper's Table 4 row order.
func (s *Suite) Scenarios() []Scenario {
	mk := func(id, name string, cores int, w [][]workload.Job, est bool, bf sim.BackfillMode) Scenario {
		return Scenario{ID: id, Name: name, Cores: cores, UseEstimates: est, Backfill: bf, Windows: w}
	}
	out := []Scenario{
		mk("fig4a", "Workload model, nmax=256, actual runtimes r", 256, s.Model256, false, sim.BackfillNone),
		mk("fig4b", "Workload model, nmax=1024, actual runtimes r", 1024, s.Model1024, false, sim.BackfillNone),
		mk("fig5a", "Workload model, nmax=256, runtime estimates e", 256, s.Model256, true, sim.BackfillNone),
		mk("fig5b", "Workload model, nmax=1024, runtime estimates e", 1024, s.Model1024, true, sim.BackfillNone),
		mk("fig6a", "Workload model, nmax=256, aggressive backfilling", 256, s.Model256, true, sim.BackfillEASY),
		mk("fig6b", "Workload model, nmax=1024, aggressive backfilling", 1024, s.Model1024, true, sim.BackfillEASY),
	}
	figs := []struct {
		fig  string
		est  bool
		bf   sim.BackfillMode
		cond string
	}{
		{"fig7", false, sim.BackfillNone, "actual runtimes r"},
		{"fig8", true, sim.BackfillNone, "runtime estimates e"},
		{"fig9", true, sim.BackfillEASY, "aggressive backfilling"},
	}
	for _, f := range figs {
		for ti, tw := range s.Traces {
			id := fmt.Sprintf("%s%c", f.fig, 'a'+ti)
			name := fmt.Sprintf("%s workload trace, %s", tw.Spec.Name, f.cond)
			out = append(out, mk(id, name, tw.Spec.Cores, tw.Windows, f.est, f.bf))
		}
	}
	return out
}

// Table5Row is one row of Table 5: the platform inventory of the traces.
type Table5Row struct {
	Name        string
	Year        int
	Cores       int
	Jobs        int
	Utilization float64
	Days        float64
}

// Table5 reproduces Table 5 against the synthetic traces: the platform
// characteristics the substitution preserves (machine size, utilization)
// and those it scales down (job count, duration — documented in
// DESIGN.md).
func Table5(cfg Config) ([]Table5Row, error) {
	days := cfg.WindowDays*float64(cfg.Sequences) + cfg.WindowDays
	rows := make([]Table5Row, 0, 4)
	for _, spec := range traces.All() {
		tr, err := traces.Generate(spec, days, dist.Split(cfg.Seed, uint64(spec.Cores)))
		if err != nil {
			return nil, err
		}
		st := tr.ComputeStats()
		rows = append(rows, Table5Row{
			Name:        spec.Name,
			Year:        spec.Year,
			Cores:       spec.Cores,
			Jobs:        st.Jobs,
			Utilization: st.Utilization,
			Days:        st.DurationSec / 86400,
		})
	}
	return rows, nil
}

// Table4Row is one row of Table 4: scenario label plus the per-policy
// medians of the average bounded slowdown.
type Table4Row struct {
	Label   string
	Medians []float64 // in Policies order
}

// Table4Result carries all rows plus the policy header.
type Table4Result struct {
	Policies []string
	Rows     []Table4Row
	Results  []*DynamicResult // full per-scenario results, same order
}

// Table4 reproduces Table 4 by running every scenario of the suite with
// the given policies (the paper's eight: FCFS, WFP, UNI, SPT, F4–F1).
// paperrepro builds the same table through the public Grid.
//
//gensched:allow deadlint driver of the root BenchmarkTable4Medians
func (s *Suite) Table4(policies []sched.Policy) (*Table4Result, error) {
	out := &Table4Result{Policies: sched.Names(policies)}
	for _, sc := range s.Scenarios() {
		res, err := RunDynamic(sc, policies, s.Config.workers())
		if err != nil {
			return nil, err
		}
		out.Results = append(out.Results, res)
		out.Rows = append(out.Rows, Table4Row{Label: sc.Name, Medians: res.Medians()})
	}
	return out, nil
}
