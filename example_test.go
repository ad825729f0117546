package gensched_test

import (
	"fmt"

	gensched "github.com/hpcsched/gensched"
)

// ExamplePolicies lists the paper's eight evaluation policies in the order
// the figures present them.
func ExamplePolicies() {
	for _, p := range gensched.Policies() {
		fmt.Println(p.Name())
	}
	// Output:
	// FCFS
	// WFP3
	// UNICEF
	// SPT
	// F4
	// F3
	// F2
	// F1
}

// ExampleReplayTrace schedules a tiny hand-built workload and prints each
// job's start time: under FCFS the 4-core job blocks the queue, so the
// 1-core job behind it waits even though cores are free.
func ExampleReplayTrace() {
	jobs := []gensched.Job{
		{ID: 1, Submit: 0, Runtime: 100, Estimate: 100, Cores: 2},
		{ID: 2, Submit: 10, Runtime: 50, Estimate: 50, Cores: 4},
		{ID: 3, Submit: 20, Runtime: 30, Estimate: 30, Cores: 1},
	}
	res, err := gensched.ReplayTrace(4, jobs, gensched.ClusterConfig{
		Policy: gensched.MustPolicy("FCFS"),
	})
	if err != nil {
		panic(err)
	}
	for _, s := range res.Stats {
		fmt.Printf("job %d starts at %.0f\n", s.Job.ID, s.Start)
	}
	// Output:
	// job 1 starts at 0
	// job 2 starts at 100
	// job 3 starts at 150
}

// ExampleReplayTrace_backfilling enables EASY aggressive backfilling on
// the same workload: job 3 now jumps ahead because it finishes before the
// blocked head's reservation.
func ExampleReplayTrace_backfilling() {
	jobs := []gensched.Job{
		{ID: 1, Submit: 0, Runtime: 100, Estimate: 100, Cores: 2},
		{ID: 2, Submit: 10, Runtime: 50, Estimate: 50, Cores: 4},
		{ID: 3, Submit: 20, Runtime: 30, Estimate: 30, Cores: 1},
	}
	res, err := gensched.ReplayTrace(4, jobs, gensched.ClusterConfig{
		Policy:   gensched.MustPolicy("FCFS"),
		Backfill: gensched.BackfillEASY,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("job 3 starts at %.0f (backfilled: %v)\n", res.Stats[2].Start, res.Stats[2].Backfilled)
	fmt.Printf("head job 2 still starts at %.0f\n", res.Stats[1].Start)
	// Output:
	// job 3 starts at 20 (backfilled: true)
	// head job 2 still starts at 100
}

// ExampleMustPolicy_f1 shows the learned F1 policy scoring two waiting
// tasks: the earlier-submitted task wins even when it is much larger,
// because of the dominant log10(s) term the paper highlights.
func ExampleMustPolicy_f1() {
	f1 := gensched.MustPolicy("F1")
	early := gensched.JobView{Runtime: 27000, Cores: 256, Submit: 100}
	late := gensched.JobView{Runtime: 10, Cores: 1, Submit: 10000}
	fmt.Println(f1.Score(early) < f1.Score(late))
	// Output:
	// true
}
