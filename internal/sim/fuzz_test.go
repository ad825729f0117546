package sim_test

import (
	"testing"

	"github.com/hpcsched/gensched/internal/sched"
	"github.com/hpcsched/gensched/internal/sim"
	"github.com/hpcsched/gensched/internal/simtest"
	"github.com/hpcsched/gensched/internal/workload"
)

// fuzzCores is the machine size every fuzz case schedules onto.
const fuzzCores = 16

// jobsFromBytes decodes a fuzz input into a bounded job list: five bytes
// per job (inter-arrival gap, runtime, estimate skew, cores, flags).
// Underestimates, zero gaps (simultaneous arrivals) and duplicate
// runtimes all arise naturally from the byte ranges. Flag bit 0 swaps the
// job with an earlier one (the rest of the flag byte picks which), so the
// list also arrives out of submit order and the engine has to sort its
// arrivals.
func jobsFromBytes(data []byte) []workload.Job {
	const maxJobs = 48
	n := len(data) / 5
	if n > maxJobs {
		n = maxJobs
	}
	jobs := make([]workload.Job, 0, n)
	now := 0.0
	for i := 0; i < n; i++ {
		b := data[i*5 : i*5+5]
		now += float64(b[0]) // 0 gap = burst arrival
		runtime := 1 + float64(b[1])*4
		// Estimate from skew byte: below 128 scales down (underestimate),
		// above scales up; exactly 128 is exact.
		est := runtime * (float64(b[2]) + 1) / 129
		if est < 1 {
			est = 1
		}
		cores := 1 + int(b[3])%fuzzCores
		jobs = append(jobs, workload.Job{
			ID:       i + 1,
			Submit:   now,
			Runtime:  runtime,
			Estimate: est,
			Cores:    cores,
		})
		if flags := b[4]; flags&1 != 0 {
			k := int(flags>>1) % (i + 1)
			jobs[i], jobs[k] = jobs[k], jobs[i]
		}
	}
	return jobs
}

// FuzzEngine feeds arbitrary job sets through every backfill mode with
// invariant checking on and the simref oracle as ground truth: any
// schedule the engine produces must pass the checker and match the
// oracle bit-for-bit.
func FuzzEngine(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 10, 128, 3, 0, 0, 10, 128, 3, 0})                   // identical twins at t=0
	f.Add([]byte{5, 200, 10, 15, 0, 0, 3, 255, 0, 0, 1, 50, 128, 7, 0}) // under/overestimates
	f.Add([]byte{0, 255, 1, 15, 0, 0, 1, 255, 15, 0, 0, 1, 1, 0, 0})    // full-machine + tiny
	// Out of submit order: the third job swaps to the front, the fourth
	// (a burst twin of the third) into second place.
	f.Add([]byte{9, 20, 128, 8, 0, 0, 30, 128, 4, 0, 4, 5, 128, 8, 1, 0, 9, 128, 2, 3})
	seed := make([]byte, 48*5)
	for i := range seed {
		seed[i] = byte(i * 37) // flag bytes 37·(5k+4): odd k permutes
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		jobs := jobsFromBytes(data)
		if len(jobs) == 0 {
			return
		}
		for _, mode := range simtest.Modes {
			for _, est := range []bool{false, true} {
				err := simtest.Differential(fuzzCores, jobs, sim.Options{
					Policy:       sched.FCFS(),
					Backfill:     mode,
					UseEstimates: est,
				})
				if err != nil {
					t.Fatalf("%d jobs, %s, estimates=%v: %v", len(jobs), mode, est, err)
				}
			}
		}
		// One non-FCFS pass: score ties under SPT with quantized runtimes.
		if err := simtest.Differential(fuzzCores, jobs, sim.Options{
			Policy:        sched.SPT(),
			Backfill:      sim.BackfillEASY,
			BackfillOrder: sched.SPT(),
			UseEstimates:  true,
		}); err != nil {
			t.Fatalf("%d jobs, SPT+SJBF: %v", len(jobs), err)
		}
	})
}
