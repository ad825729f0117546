package traces

import (
	"math"
	"testing"

	"github.com/hpcsched/gensched/internal/workload"
)

func TestSpecsValid(t *testing.T) {
	for _, spec := range All() {
		if err := spec.Validate(); err != nil {
			t.Errorf("%s: %v", spec.Name, err)
		}
	}
	if len(All()) != 4 {
		t.Errorf("expected the four Table 5 platforms")
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	bad := []PlatformSpec{
		{Name: "x", Cores: 0, TargetUtil: 0.5, AllocUnit: 1},
		{Name: "x", Cores: 10, TargetUtil: 0, AllocUnit: 1},
		{Name: "x", Cores: 10, TargetUtil: 1.5, AllocUnit: 1},
		{Name: "x", Cores: 10, TargetUtil: 0.5, AllocUnit: 0},
		{Name: "x", Cores: 10, TargetUtil: 0.5, AllocUnit: 11},
	}
	for i, spec := range bad {
		if err := spec.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestGenerateCTCSP2(t *testing.T) {
	tr, err := Generate(CTCSP2, 10, 42)
	if err != nil {
		t.Fatal(err)
	}
	checkTrace(t, tr)
	st := tr.ComputeStats()
	if math.Abs(st.Utilization-CTCSP2.TargetUtil) > 0.02 {
		t.Errorf("utilization = %.3f, want %.3f", st.Utilization, CTCSP2.TargetUtil)
	}
	if st.DurationSec < 9*24*3600 {
		t.Errorf("trace spans %.1f days, want >= 9", st.DurationSec/86400)
	}
	for _, j := range tr.Jobs {
		if j.Cores > CTCSP2.Cores {
			t.Fatalf("job uses %d cores on a %d-core machine", j.Cores, CTCSP2.Cores)
		}
		if j.Estimate < j.Runtime {
			t.Fatal("estimate below runtime")
		}
	}
}

func TestGenerateIntrepidGranularity(t *testing.T) {
	tr, err := Generate(Intrepid, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range tr.Jobs {
		if j.Cores%Intrepid.AllocUnit != 0 {
			t.Fatalf("allocation %d not a multiple of %d", j.Cores, Intrepid.AllocUnit)
		}
	}
	st := tr.ComputeStats()
	if math.Abs(st.Utilization-Intrepid.TargetUtil) > 0.02 {
		t.Errorf("utilization = %.3f, want %.3f", st.Utilization, Intrepid.TargetUtil)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(SDSCBlue, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(SDSCBlue, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Jobs) != len(b.Jobs) {
		t.Fatalf("lengths differ: %d vs %d", len(a.Jobs), len(b.Jobs))
	}
	for i := range a.Jobs {
		if a.Jobs[i] != b.Jobs[i] {
			t.Fatalf("job %d differs", i)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(PlatformSpec{Name: "bad"}, 1, 1); err == nil {
		t.Error("invalid spec accepted")
	}
	if _, err := Generate(CTCSP2, 0, 1); err == nil {
		t.Error("zero days accepted")
	}
}

// TestAllPlatformsCalibrationAndCaps sweeps the four Table 5 platforms
// and checks the three properties every synthetic stand-in must satisfy:
// allocation granularity (Intrepid's 512-core blocks, SDSC's 8-way
// nodes), utilization calibrated to the log's published mean within the
// tolerance the experiments assume, and runtimes inside the model's
// clamp on every platform.
func TestAllPlatformsCalibrationAndCaps(t *testing.T) {
	const utilTol = 0.02
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			tr, err := Generate(spec, 2, 1234)
			if err != nil {
				t.Fatal(err)
			}
			checkTrace(t, tr)
			maxRuntime := 2.7e4 // the Lublin default the specs inherit
			if spec.MaxRuntime > 0 {
				maxRuntime = spec.MaxRuntime
			}
			for _, j := range tr.Jobs {
				if j.Cores%spec.AllocUnit != 0 {
					t.Fatalf("job %d: allocation %d not a multiple of the %d-core unit",
						j.ID, j.Cores, spec.AllocUnit)
				}
				if j.Cores > spec.Cores {
					t.Fatalf("job %d: %d cores on a %d-core machine", j.ID, j.Cores, spec.Cores)
				}
				if j.Runtime < 1 || j.Runtime > maxRuntime {
					t.Fatalf("job %d: runtime %g outside [1, %g]", j.ID, j.Runtime, maxRuntime)
				}
				if j.Estimate < j.Runtime {
					t.Fatalf("job %d: estimate %g below runtime %g", j.ID, j.Estimate, j.Runtime)
				}
			}
			st := tr.ComputeStats()
			if math.Abs(st.Utilization-spec.TargetUtil) > utilTol {
				t.Fatalf("utilization %.3f misses the Table 5 target %.3f by more than %.2f",
					st.Utilization, spec.TargetUtil, utilTol)
			}
		})
	}
}

// TestMaxRuntimeCapOverride pins that a spec's wallclock cap reaches the
// generator: every runtime respects it, and the trace still calibrates.
func TestMaxRuntimeCapOverride(t *testing.T) {
	spec := CTCSP2
	spec.Name = "CTC capped"
	spec.MaxRuntime = 1800
	tr, err := Generate(spec, 2, 99)
	if err != nil {
		t.Fatal(err)
	}
	capped := 0
	for _, j := range tr.Jobs {
		if j.Runtime > spec.MaxRuntime {
			t.Fatalf("job %d: runtime %g above the %g cap", j.ID, j.Runtime, spec.MaxRuntime)
		}
		if j.Runtime == spec.MaxRuntime {
			capped++
		}
	}
	if capped == 0 {
		t.Error("no job hit the cap; the override was not exercised")
	}
	st := tr.ComputeStats()
	if math.Abs(st.Utilization-spec.TargetUtil) > 0.02 {
		t.Errorf("capped trace utilization %.3f misses target %.3f", st.Utilization, spec.TargetUtil)
	}
}

// TestQuantizeAllocations pins the rounding rule in isolation: requests
// round UP to the unit (a 1-core job on Intrepid takes a whole 512-block,
// the BlueGene reality the experiments model) and clamp at machine size.
func TestQuantizeAllocations(t *testing.T) {
	spec := PlatformSpec{Name: "q", Cores: 1024, TargetUtil: 0.5, AllocUnit: 512}
	jobs := []workload.Job{
		{ID: 1, Cores: 1, Runtime: 10},
		{ID: 2, Cores: 512, Runtime: 10},
		{ID: 3, Cores: 513, Runtime: 10},
		{ID: 4, Cores: 1024, Runtime: 10},
	}
	quantizeAllocations(jobs, spec)
	for i, want := range []int{512, 512, 1024, 1024} {
		if jobs[i].Cores != want {
			t.Errorf("job %d: quantized to %d, want %d", jobs[i].ID, jobs[i].Cores, want)
		}
	}
	// A would-be overflow (rounding past the machine) clamps to the top.
	over := []workload.Job{{ID: 5, Cores: 1025, Runtime: 10}}
	quantizeAllocations(over, PlatformSpec{Name: "q2", Cores: 1200, TargetUtil: 0.5, AllocUnit: 512})
	if over[0].Cores != 1200 {
		t.Errorf("overflowing request quantized to %d, want the 1200-core clamp", over[0].Cores)
	}
	// Unit 1 is the identity.
	one := []workload.Job{{ID: 6, Cores: 7, Runtime: 10}}
	quantizeAllocations(one, CTCSP2)
	if one[0].Cores != 7 {
		t.Errorf("unit-1 platform changed a request to %d", one[0].Cores)
	}
}

func TestPlatformsDifferInScale(t *testing.T) {
	// The point of the trace study: platforms must look very different.
	curie, err := Generate(Curie, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	ctc, err := Generate(CTCSP2, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	cs, ts := curie.ComputeStats(), ctc.ComputeStats()
	if cs.MeanCores <= ts.MeanCores*2 {
		t.Errorf("Curie mean cores %.1f not far above CTC %.1f", cs.MeanCores, ts.MeanCores)
	}
}

// checkTrace asserts what every generated trace must satisfy: at least
// one job, every job fits the platform, and submissions are sorted.
func checkTrace(t *testing.T, tr *workload.Trace) {
	t.Helper()
	if len(tr.Jobs) == 0 {
		t.Fatal("trace has no jobs")
	}
	for i, j := range tr.Jobs {
		if err := j.Validate(tr.MaxProcs); err != nil {
			t.Fatalf("job at index %d: %v", i, err)
		}
		if i > 0 && j.Submit < tr.Jobs[i-1].Submit {
			t.Fatalf("job at index %d out of submit order", i)
		}
	}
}
