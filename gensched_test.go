package gensched

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"github.com/hpcsched/gensched/internal/lublin"
	"github.com/hpcsched/gensched/internal/sim"
)

// lublinTrace generates a Lublin–Feitelson trace for a machine of the
// given cores spanning days, load-calibrated when targetLoad > 0, with
// perfect estimates.
func lublinTrace(t testing.TB, cores int, days, targetLoad float64, seed uint64) *Trace {
	t.Helper()
	gen, err := lublin.NewGenerator(lublin.DefaultParams(cores), cores, seed)
	if err != nil {
		t.Fatal(err)
	}
	jobs := gen.Until(days * 24 * 3600)
	if targetLoad > 0 {
		lublin.CalibrateLoad(jobs, cores, targetLoad)
	}
	return &Trace{Name: "lublin", MaxProcs: cores, Jobs: jobs}
}

func TestPoliciesRegistry(t *testing.T) {
	ps := Policies()
	if len(ps) != 8 {
		t.Fatalf("got %d policies, want 8", len(ps))
	}
	if ps[0].Name() != "FCFS" || ps[7].Name() != "F1" {
		t.Errorf("registry order: %s ... %s", ps[0].Name(), ps[7].Name())
	}
}

func TestMustPolicy(t *testing.T) {
	if MustPolicy("F1").Name() != "F1" {
		t.Error("MustPolicy(F1) wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustPolicy did not panic on unknown name")
		}
	}()
	MustPolicy("NOPE")
}

func TestApplyEstimates(t *testing.T) {
	trace := lublinTrace(t, 64, 1, 0.9, 3)
	if err := ApplyEstimates(trace.Jobs, 9); err != nil {
		t.Fatal(err)
	}
	for _, j := range trace.Jobs {
		if j.Estimate < j.Runtime {
			t.Fatal("estimate below runtime")
		}
	}
}

func TestSWFRoundTripFacade(t *testing.T) {
	trace := lublinTrace(t, 32, 1, 0.8, 5)
	var buf bytes.Buffer
	if err := WriteSWF(&buf, trace); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSWF(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Jobs) != len(trace.Jobs) {
		t.Errorf("round trip lost jobs: %d vs %d", len(back.Jobs), len(trace.Jobs))
	}
}

func TestTrainAndFitPipeline(t *testing.T) {
	samples, err := GenerateScoreDistribution(TrainingConfig{Tuples: 2, Trials: 256, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 2*32 {
		t.Fatalf("got %d samples", len(samples))
	}
	policies, fits, err := FitPolicies(samples, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(policies) != 3 || len(fits) != 3 {
		t.Fatalf("got %d policies, %d fits", len(policies), len(fits))
	}
	if !strings.HasPrefix(policies[0].Name(), "L") {
		t.Errorf("learned policy name = %q", policies[0].Name())
	}
	// Learned policies must be usable in the simulator.
	trace := lublinTrace(t, 256, 1, 1.0, 13)
	if _, err := sim.Run(sim.Platform{Cores: 256}, trace.Jobs, SimOptions{Policy: policies[0]}); err != nil {
		t.Fatal(err)
	}
}

func TestParsePolicy(t *testing.T) {
	p, err := ParsePolicy("MINE", "log10(r)*n + 870*log10(s)")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "MINE" {
		t.Errorf("name = %q", p.Name())
	}
	// Must behave identically to the built-in F1.
	f1 := MustPolicy("F1")
	views := []JobView{
		{Runtime: 100, Cores: 8, Submit: 1000},
		{Runtime: 27000, Cores: 256, Submit: 50},
		{Runtime: 1, Cores: 1, Submit: 86400},
	}
	for _, v := range views {
		if p.Score(v) != f1.Score(v) {
			t.Errorf("parsed policy diverges from F1 at %+v", v)
		}
	}
	if _, err := ParsePolicy("BAD", "r +"); err == nil {
		t.Error("bad source accepted")
	}
}

func TestSliceWindowsFacade(t *testing.T) {
	trace := lublinTrace(t, 64, 4, 0.9, 17)
	ws, err := SliceWindows(trace, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 3 {
		t.Fatalf("got %d windows", len(ws))
	}
	for _, w := range ws {
		for _, j := range w {
			if j.Submit < 1 || j.Submit > 86401 {
				t.Fatalf("rebased submit %v out of range", j.Submit)
			}
		}
	}
}

func TestPolicyNameBeyondNine(t *testing.T) {
	// The old rune arithmetic ("L" + rune('1'+i)) produced garbage past
	// index 8; names must stay readable for any top count.
	want := []string{"L1", "L2", "L3", "L4", "L5", "L6", "L7", "L8", "L9", "L10", "L11", "L12"}
	for i := 0; i < 12; i++ {
		if got := policyName(i); got != want[i] {
			t.Errorf("policyName(%d) = %q, want %q", i, got, want[i])
		}
	}
}

func TestFitPoliciesNamesTopTwelve(t *testing.T) {
	samples, err := GenerateScoreDistribution(TrainingConfig{Tuples: 2, Trials: 256, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	policies, _, err := FitPolicies(samples, 12, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range policies {
		if want := fmt.Sprintf("L%d", i+1); p.Name() != want {
			t.Errorf("policy %d named %q, want %q", i, p.Name(), want)
		}
	}
	if len(policies) < 10 {
		t.Fatalf("got only %d distinct policies, want at least 10 to cover double-digit names", len(policies))
	}
}

func TestSplitSeed(t *testing.T) {
	if SplitSeed(1, 2) == SplitSeed(1, 3) {
		t.Error("streams collide")
	}
	if SplitSeed(1, 2) != SplitSeed(1, 2) {
		t.Error("not deterministic")
	}
}
