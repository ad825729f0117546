// Swfreplay demonstrates the Standard Workload Format round trip the
// paper's evaluation relies on: write a synthetic trace as SWF (the
// Parallel Workloads Archive format), parse it back, and replay it as a
// Scenario — the parsed trace sliced into disjoint sequences, scheduled
// under every grid policy the way the dynamic scheduling experiments do.
//
//	go run ./examples/swfreplay
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"os"

	gensched "github.com/hpcsched/gensched"
)

func main() {
	const cores = 128

	// Generate twelve days of workload at offered load 1.05, with Tsafrir
	// user estimates, and persist it as SWF.
	w, err := gensched.Lublin().Build(gensched.WorkloadRequest{Cores: cores, Days: 12, Sequences: 1, Load: 1.05, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	trace := &gensched.Trace{Name: w.Name, MaxProcs: w.Cores, Jobs: w.Windows[0]}
	var buf bytes.Buffer
	if err := gensched.WriteSWF(&buf, trace); err != nil {
		log.Fatal(err)
	}
	path := "replay.swf"
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s: %d jobs, %d bytes\n", path, len(trace.Jobs), buf.Len())

	// Parse it back, as any SWF consumer would.
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	parsed, err := gensched.ReadSWF(f)
	_ = f.Close() // opened read-only; close cannot lose data
	if err != nil {
		log.Fatal(err)
	}
	st := parsed.ComputeStats()
	fmt.Printf("parsed back: %d jobs, %d cores, util %.1f%%, mean size %.1f cores\n\n",
		st.Jobs, parsed.MaxProcs, 100*st.Utilization, st.MeanCores)

	// Replay three disjoint two-day sequences under two policies: the
	// parsed trace is the scenario's workload source, the policies are
	// the grid's axis.
	sc, err := gensched.NewScenario(
		gensched.WithTrace(parsed),
		gensched.WithWindows(2, 3),
		gensched.WithEstimates(),
		gensched.WithEASY(),
	)
	if err != nil {
		log.Fatal(err)
	}
	g, err := gensched.NewGrid(sc, gensched.OverPolicies("FCFS", "F1"))
	if err != nil {
		log.Fatal(err)
	}
	res, err := (&gensched.Runner{}).Run(context.Background(), g)
	if err != nil {
		log.Fatal(err)
	}
	for _, c := range res.Cells {
		fmt.Printf("%s:", c.Scenario.Policy.Name())
		for i, v := range c.PerSeq {
			fmt.Printf("  seq%d AVEbsld=%.2f", i+1, v)
		}
		fmt.Println()
	}
	_ = os.Remove(path)
}
