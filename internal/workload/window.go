package workload

import "fmt"

// Windows slices the trace into count disjoint consecutive windows of
// length windowSec (by submit time), rebasing each window's submit times
// to start at rebase seconds. Rebasing to a small positive origin keeps
// log10(s) in the range the learned policies were trained on. Windows with
// no jobs are returned empty rather than skipped so callers can detect
// under-long traces.
func Windows(t *Trace, windowSec float64, count int, rebase float64) ([][]Job, error) {
	if count <= 0 {
		return nil, fmt.Errorf("workload: non-positive window count %d", count)
	}
	if windowSec <= 0 {
		return nil, fmt.Errorf("workload: non-positive window length %g", windowSec)
	}
	if len(t.Jobs) == 0 {
		return nil, ErrNoJobs
	}
	// The trace must at least reach into the last window; otherwise the
	// caller asked for more sequences than the log contains.
	if t.Duration() < windowSec*float64(count-1) {
		return nil, fmt.Errorf("workload: trace spans %.0fs, need %.0fs to reach %d windows of %.0fs",
			t.Duration(), windowSec*float64(count-1), count, windowSec)
	}
	origin := t.Jobs[0].Submit
	out := make([][]Job, count)
	for _, j := range t.Jobs {
		w := int((j.Submit - origin) / windowSec)
		if w < 0 || w >= count {
			continue
		}
		jj := j
		jj.Submit = j.Submit - origin - float64(w)*windowSec + rebase
		out[w] = append(out[w], jj)
	}
	return out, nil
}
