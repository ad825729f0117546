package experiments

import (
	"math"
	"strings"
	"testing"

	"github.com/hpcsched/gensched/internal/expr"
	"github.com/hpcsched/gensched/internal/sched"
	"github.com/hpcsched/gensched/internal/sim"
	"github.com/hpcsched/gensched/internal/traces"
	"github.com/hpcsched/gensched/internal/workload"
)

// testConfig is even smaller than QuickConfig: unit tests must stay fast.
func testConfig() Config {
	cfg := QuickConfig()
	cfg.Sequences = 3
	cfg.WindowDays = 1
	cfg.Trials = 512
	cfg.Tuples = 3
	cfg.ConvergenceCounts = []int{64, 256}
	cfg.ConvergenceReps = 3
	return cfg
}

func TestModelWindows(t *testing.T) {
	cfg := testConfig()
	ws, err := ModelWindows(cfg, 256)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != cfg.Sequences {
		t.Fatalf("got %d windows, want %d", len(ws), cfg.Sequences)
	}
	for wi, w := range ws {
		if len(w) == 0 {
			t.Fatalf("window %d empty", wi)
		}
		for _, j := range w {
			if j.Submit < 1 || j.Submit > cfg.windowSec()+1 {
				t.Fatalf("window %d: submit %v outside rebased range", wi, j.Submit)
			}
			if j.Estimate < j.Runtime {
				t.Fatalf("window %d: estimate below runtime", wi)
			}
			if j.Cores > 256 {
				t.Fatalf("window %d: %d cores", wi, j.Cores)
			}
		}
	}
}

func TestRunDynamicShape(t *testing.T) {
	// The headline qualitative result: on a saturated Lublin workload, F1
	// must beat FCFS by a wide margin, and the learned policies must beat
	// the ad-hoc ones.
	cfg := testConfig()
	ws, err := ModelWindows(cfg, 256)
	if err != nil {
		t.Fatal(err)
	}
	sc := Scenario{ID: "test", Name: "test", Cores: 256, Windows: ws}
	policies := []sched.Policy{sched.FCFS(), sched.WFP3(), sched.F1()}
	res, err := RunDynamic(sc, policies, 0)
	if err != nil {
		t.Fatal(err)
	}
	med := res.Medians()
	fcfs, wfp, f1 := med[0], med[1], med[2]
	// At this reduced scale (1-day windows) the starvation effects that
	// separate F1 from SPT in the paper's 15-day sequences cannot build
	// up, so assert the robust orderings: F1 crushes FCFS and beats WFP3.
	// The full-scale comparison lives in the benchmark harness and
	// EXPERIMENTS.md.
	if f1 >= fcfs/10 {
		t.Errorf("F1 median %.1f not far below FCFS %.1f", f1, fcfs)
	}
	if f1 >= wfp {
		t.Errorf("F1 median %.1f not below WFP3 %.1f", f1, wfp)
	}
	t.Logf("medians: FCFS=%.1f WFP3=%.1f F1=%.1f", fcfs, wfp, f1)
}

func TestRunDynamicDeterministicAcrossWorkers(t *testing.T) {
	cfg := testConfig()
	cfg.Sequences = 2
	ws, err := ModelWindows(cfg, 256)
	if err != nil {
		t.Fatal(err)
	}
	sc := Scenario{ID: "det", Name: "det", Cores: 256, Windows: ws}
	pol := []sched.Policy{sched.FCFS(), sched.F1()}
	a, err := RunDynamic(sc, pol, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunDynamic(sc, pol, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.PerSeq {
		for j := range a.PerSeq[i] {
			if a.PerSeq[i][j] != b.PerSeq[i][j] {
				t.Fatalf("cell (%d,%d) differs across worker counts", i, j)
			}
		}
	}
}

func TestRunDynamicErrors(t *testing.T) {
	if _, err := RunDynamic(Scenario{}, []sched.Policy{sched.FCFS()}, 1); err != ErrNoWindows {
		t.Errorf("err = %v, want ErrNoWindows", err)
	}
}

// dummyWindows builds a minimal stand-in workload for wiring tests.
func dummyWindows() [][]workload.Job {
	return [][]workload.Job{{{ID: 1, Submit: 1, Runtime: 10, Estimate: 10, Cores: 1}}}
}

func TestSuiteScenarios(t *testing.T) {
	// Build a minimal fake suite; scenario wiring must match the paper.
	suite := &Suite{
		Config:    testConfig(),
		Model256:  dummyWindows(),
		Model1024: dummyWindows(),
	}
	for _, spec := range traces.All() {
		suite.Traces = append(suite.Traces, TraceWorkload{Spec: spec, Windows: dummyWindows()})
	}
	scs := suite.Scenarios()
	if len(scs) != 18 {
		t.Fatalf("got %d scenarios, want 18", len(scs))
	}
	if scs[0].ID != "fig4a" || scs[5].ID != "fig6b" || scs[6].ID != "fig7a" || scs[17].ID != "fig9d" {
		t.Errorf("scenario order wrong: %s %s %s %s", scs[0].ID, scs[5].ID, scs[6].ID, scs[17].ID)
	}
	if scs[0].UseEstimates || scs[0].Backfill != sim.BackfillNone {
		t.Error("fig4a conditions wrong")
	}
	if !scs[2].UseEstimates || scs[2].Backfill != sim.BackfillNone {
		t.Error("fig5a conditions wrong")
	}
	if !scs[4].UseEstimates || scs[4].Backfill != sim.BackfillEASY {
		t.Error("fig6a conditions wrong")
	}
	if scs[6].UseEstimates {
		t.Error("fig7a must use actual runtimes")
	}
	if scs[17].Backfill != sim.BackfillEASY {
		t.Error("fig9d must backfill")
	}
}

func TestFig1(t *testing.T) {
	cfg := testConfig()
	res, err := Fig1(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("got %d examples", len(res))
	}
	for _, ts := range res {
		if len(ts.Scores) != 32 {
			t.Fatalf("got %d scores, want 32", len(ts.Scores))
		}
		var sum float64
		for _, s := range ts.Scores {
			sum += s
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("scores sum to %v", sum)
		}
	}
}

func TestFig2(t *testing.T) {
	cfg := testConfig()
	res, err := Fig2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Normalized) != len(cfg.ConvergenceCounts) {
		t.Fatal("series length mismatch")
	}
	if math.Abs(res.Normalized[0]-1) > 1e-12 {
		t.Errorf("series must be normalized to its first point, got %v", res.Normalized[0])
	}
	last := res.Normalized[len(res.Normalized)-1]
	if last >= 1 {
		t.Errorf("stddev did not shrink with more trials: %v", res.Normalized)
	}
}

func TestTable3(t *testing.T) {
	cfg := testConfig()
	res, err := Table3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples != cfg.Tuples*32 {
		t.Errorf("samples = %d, want %d", res.Samples, cfg.Tuples*32)
	}
	if len(res.Best) != 4 {
		t.Fatalf("got %d best functions, want 4", len(res.Best))
	}
	for i := 1; i < len(res.Best); i++ {
		if res.Best[i].Rank < res.Best[i-1].Rank {
			t.Error("best functions not rank-ordered")
		}
	}
	out := FormatTable3(res)
	if !strings.Contains(out, "F1:") || !strings.Contains(out, "fitness=") {
		t.Errorf("report missing sections:\n%s", out)
	}
}

func TestFig3(t *testing.T) {
	funcs := []expr.Func{
		{Form: expr.Form{A: expr.BaseLog, B: expr.BaseID, C: expr.BaseLog, Op1: expr.OpMul, Op2: expr.OpAdd}, C: [3]float64{1, 1, 870}},
		{Form: expr.Form{A: expr.BaseID, B: expr.BaseID, C: expr.BaseLog, Op1: expr.OpMul, Op2: expr.OpAdd}, C: [3]float64{1, 1, 6.86e6}},
	}
	maps, err := Fig3(funcs, []string{"F1", "F3"}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(maps) != 6 { // 3 panels x 2 functions
		t.Fatalf("got %d heatmaps, want 6", len(maps))
	}
	for _, h := range maps {
		for _, row := range h.Z {
			for _, v := range row {
				if v < 0 || v > 1 || math.IsNaN(v) {
					t.Fatalf("unnormalized Z value %v", v)
				}
			}
		}
	}
	// The r×s panel must show priority increasing (Z decreasing) with
	// earlier submission: top row (late) has higher mean than bottom (early).
	var rxs Heatmap
	for _, h := range maps {
		if h.Policy == "F1" && h.YLabel == "submit time (s)" {
			rxs = h
			break
		}
	}
	botMean, topMean := 0.0, 0.0
	for xi := range rxs.Xs {
		botMean += rxs.Z[0][xi]
		topMean += rxs.Z[len(rxs.Ys)-1][xi]
	}
	if botMean >= topMean {
		t.Error("F1 heatmap does not prioritize earlier submissions")
	}
	if _, err := Fig3(funcs, []string{"only-one"}, 8); err == nil {
		t.Error("mismatched names accepted")
	}
	if out := RenderHeatmap(rxs, 40); !strings.Contains(out, "F1") {
		t.Error("heatmap render missing label")
	}
}

func TestTable5(t *testing.T) {
	cfg := testConfig()
	rows, err := Table5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	wantUtil := []float64{0.620, 0.596, 0.767, 0.852}
	for i, r := range rows {
		if math.Abs(r.Utilization-wantUtil[i]) > 0.03 {
			t.Errorf("%s utilization = %.3f, want %.3f", r.Name, r.Utilization, wantUtil[i])
		}
	}
	out := FormatTable5(rows)
	if !strings.Contains(out, "Curie") || !strings.Contains(out, "CTC SP2") {
		t.Errorf("table 5 render:\n%s", out)
	}
}

func TestReportsRender(t *testing.T) {
	cfg := testConfig()
	cfg.Sequences = 2
	ws, err := ModelWindows(cfg, 256)
	if err != nil {
		t.Fatal(err)
	}
	sc := Scenario{ID: "fig4a", Name: "lublin_256", Cores: 256, Windows: ws}
	res, err := RunDynamic(sc, []sched.Policy{sched.FCFS(), sched.F1()}, 0)
	if err != nil {
		t.Fatal(err)
	}
	t4 := &Table4Result{
		Policies: []string{"FCFS", "F1"},
		Rows:     []Table4Row{{Label: sc.Name, Medians: res.Medians()}},
	}
	if out := t4.Format(); !strings.Contains(out, "lublin_256") {
		t.Errorf("table 4 render:\n%s", out)
	}
}
