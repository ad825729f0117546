package workload

import (
	"math"
	"testing"
)

func validJob() Job {
	return Job{ID: 1, Submit: 10, Runtime: 100, Estimate: 200, Cores: 4}
}

func TestJobValidate(t *testing.T) {
	if err := validJob().Validate(8); err != nil {
		t.Errorf("valid job rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Job)
	}{
		{"negative submit", func(j *Job) { j.Submit = -1 }},
		{"zero runtime", func(j *Job) { j.Runtime = 0 }},
		{"zero cores", func(j *Job) { j.Cores = 0 }},
		{"too many cores", func(j *Job) { j.Cores = 9 }},
		{"negative estimate", func(j *Job) { j.Estimate = -5 }},
	}
	for _, c := range cases {
		j := validJob()
		c.mutate(&j)
		if err := j.Validate(8); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	// maxCores <= 0 disables the capacity check.
	j := validJob()
	j.Cores = 10000
	if err := j.Validate(0); err != nil {
		t.Errorf("capacity check not disabled: %v", err)
	}
}

func TestJobArea(t *testing.T) {
	j := Job{Runtime: 50, Cores: 3}
	if got := j.Area(); got != 150 {
		t.Errorf("Area = %v, want 150", got)
	}
}

func TestTraceSortBySubmit(t *testing.T) {
	tr := &Trace{MaxProcs: 16, Jobs: []Job{
		{ID: 2, Submit: 20, Runtime: 5, Cores: 1},
		{ID: 1, Submit: 10, Runtime: 5, Cores: 2},
		{ID: 3, Submit: 10, Runtime: 5, Cores: 4},
	}}
	tr.SortBySubmit()
	if tr.Jobs[0].ID != 1 || tr.Jobs[1].ID != 3 || tr.Jobs[2].ID != 2 {
		t.Errorf("sort order wrong: %v", tr.Jobs)
	}
}

func TestComputeStats(t *testing.T) {
	tr := &Trace{MaxProcs: 10, Jobs: []Job{
		{ID: 1, Submit: 0, Runtime: 100, Cores: 5},
		{ID: 2, Submit: 100, Runtime: 100, Cores: 5},
	}}
	s := tr.ComputeStats()
	if s.Jobs != 2 || s.Cores != 10 {
		t.Errorf("stats = %+v", s)
	}
	if s.DurationSec != 100 {
		t.Errorf("duration = %v, want 100", s.DurationSec)
	}
	// area = 2*500 = 1000; cores*duration = 1000.
	if math.Abs(s.Utilization-1.0) > 1e-12 {
		t.Errorf("utilization = %v, want 1", s.Utilization)
	}
	if s.MeanRuntime != 100 || s.MeanCores != 5 || s.MaxCores != 5 {
		t.Errorf("stats = %+v", s)
	}
}

func TestRepair(t *testing.T) {
	tr := &Trace{MaxProcs: 8, Jobs: []Job{
		{ID: 1, Submit: 0, Runtime: 10, Estimate: 20, Cores: 4},  // fine
		{ID: 2, Submit: 1, Runtime: 10, Estimate: 20, Cores: 64}, // oversized
		{ID: 3, Submit: 2, Runtime: 10, Estimate: 0, Cores: 2},   // no estimate
	}}
	if fixed := tr.Repair(); fixed != 2 {
		t.Errorf("Repair fixed %d jobs, want 2", fixed)
	}
	if tr.Jobs[1].Cores != 8 {
		t.Errorf("oversized job clamped to %d, want 8", tr.Jobs[1].Cores)
	}
	if tr.Jobs[2].Estimate != 10 {
		t.Errorf("missing estimate repaired to %v, want 10", tr.Jobs[2].Estimate)
	}
	for _, j := range tr.Jobs {
		if err := j.Validate(tr.MaxProcs); err != nil {
			t.Errorf("repaired trace still invalid: %v", err)
		}
	}
	// Second pass is a no-op.
	if fixed := tr.Repair(); fixed != 0 {
		t.Errorf("second Repair fixed %d jobs, want 0", fixed)
	}
}

func TestComputeStatsEmpty(t *testing.T) {
	s := (&Trace{MaxProcs: 4}).ComputeStats()
	if s.Jobs != 0 || s.Utilization != 0 {
		t.Errorf("stats = %+v", s)
	}
}
