// Package workload defines the rigid-task model the paper schedules (§3.1):
// each task has an arrival time s, an actual processing time r, a
// user-estimated processing time e, and a core requirement n. The package
// also reads and writes the Standard Workload Format (SWF) used by the
// Parallel Workloads Archive, and slices traces into the disjoint
// fifteen-day sequences the dynamic scheduling experiments use.
package workload

import (
	"errors"
	"fmt"
	"sort"
)

// Job is one rigid task. Times are in seconds; Submit is relative to the
// trace epoch. Estimate is what the user requested (SWF "requested time");
// schedulers must not look at Runtime when an experiment runs in
// user-estimate mode.
type Job struct {
	ID       int     // 1-based job identifier (SWF job number)
	Submit   float64 // arrival time s_t
	Runtime  float64 // actual processing time r_t (known only after completion)
	Estimate float64 // user-estimated processing time e_t
	Cores    int     // resource requirement n_t
}

// Validate reports the first structural problem with the job, if any.
// maxCores <= 0 disables the platform-capacity check.
func (j Job) Validate(maxCores int) error {
	switch {
	case j.Submit < 0:
		return fmt.Errorf("job %d: negative submit time %g", j.ID, j.Submit)
	case j.Runtime <= 0:
		return fmt.Errorf("job %d: non-positive runtime %g", j.ID, j.Runtime)
	case j.Cores <= 0:
		return fmt.Errorf("job %d: non-positive cores %d", j.ID, j.Cores)
	case maxCores > 0 && j.Cores > maxCores:
		return fmt.Errorf("job %d: requires %d cores, platform has %d", j.ID, j.Cores, maxCores)
	case j.Estimate < 0:
		return fmt.Errorf("job %d: negative estimate %g", j.ID, j.Estimate)
	}
	return nil
}

// Area returns the resource consumption r·n of the job in core-seconds,
// the weight the paper's regression gives each training sample (Eq. 4).
func (j Job) Area() float64 { return j.Runtime * float64(j.Cores) }

// Trace is an ordered collection of jobs plus the platform size it was
// recorded (or generated) for.
type Trace struct {
	Name     string
	MaxProcs int
	Jobs     []Job
	Header   map[string]string // SWF header fields, if parsed
}

// ErrNoJobs indicates an operation that needs at least one job.
var ErrNoJobs = errors.New("workload: trace has no jobs")

// SortBySubmit orders jobs by arrival time (stable, ties by ID), the order
// every online scheduling experiment assumes.
func (t *Trace) SortBySubmit() {
	sort.SliceStable(t.Jobs, func(i, k int) bool {
		if t.Jobs[i].Submit != t.Jobs[k].Submit {
			return t.Jobs[i].Submit < t.Jobs[k].Submit
		}
		return t.Jobs[i].ID < t.Jobs[k].ID
	})
}

// Duration returns the span from the first to the last submission.
func (t *Trace) Duration() float64 {
	if len(t.Jobs) == 0 {
		return 0
	}
	return t.Jobs[len(t.Jobs)-1].Submit - t.Jobs[0].Submit
}

// Repair makes every job schedulable on the trace's platform, the way the
// paper's prototypes sanitize archive logs: jobs requesting more cores
// than the machine has are clamped to the machine size (archive logs
// contain such records when the header understates special partitions),
// and estimates below 1s are raised to the runtime. It returns the number
// of jobs modified.
func (t *Trace) Repair() int {
	fixed := 0
	for i := range t.Jobs {
		j := &t.Jobs[i]
		changed := false
		if t.MaxProcs > 0 && j.Cores > t.MaxProcs {
			j.Cores = t.MaxProcs
			changed = true
		}
		if j.Estimate < 1 {
			j.Estimate = j.Runtime
			changed = true
		}
		if changed {
			fixed++
		}
	}
	return fixed
}

// Stats summarizes a trace the way the paper's Table 5 reports platforms.
type Stats struct {
	Jobs        int
	Cores       int
	DurationSec float64
	Utilization float64 // offered load: Σ r·n / (cores · duration)
	MeanRuntime float64
	MeanCores   float64
	MaxCores    int
}

// ComputeStats derives Stats from the trace. Utilization is the offered
// load over the submission span, which approximates the logged machine
// utilization for long traces.
func (t *Trace) ComputeStats() Stats {
	s := Stats{Jobs: len(t.Jobs), Cores: t.MaxProcs}
	if len(t.Jobs) == 0 {
		return s
	}
	var area, rsum, nsum float64
	for _, j := range t.Jobs {
		area += j.Area()
		rsum += j.Runtime
		nsum += float64(j.Cores)
		if j.Cores > s.MaxCores {
			s.MaxCores = j.Cores
		}
	}
	s.DurationSec = t.Duration()
	if s.DurationSec > 0 && t.MaxProcs > 0 {
		s.Utilization = area / (float64(t.MaxProcs) * s.DurationSec)
	}
	s.MeanRuntime = rsum / float64(len(t.Jobs))
	s.MeanCores = nsum / float64(len(t.Jobs))
	return s
}
