// Example onlinesched drives the online scheduling subsystem the way a
// live resource manager would: it starts a gensched.Cluster, streams one
// day of Lublin–Feitelson jobs at it — submitting each job at its arrival
// time and reporting each completion when the job's runtime has elapsed —
// and hot-swaps the queue policy from FCFS to a learned nonlinear policy
// halfway through the day, without dropping any queued or running state.
// It prints the average bounded slowdown accumulated before the swap and
// at the end of the stream.
package main

import (
	"fmt"
	"log"
	"math"

	gensched "github.com/hpcsched/gensched"
)

func main() {
	if err := run(); err != nil {
		log.Fatal("onlinesched: ", err)
	}
}

func run() error {
	const cores = 256

	// One day of synthetic jobs at offered load 1.6 (an overloaded day, so the queue builds and policy order matters).
	w, err := gensched.Lublin().Build(gensched.WorkloadRequest{Cores: cores, Days: 1, Sequences: 1, Load: 1.6, Seed: 20170612})
	if err != nil {
		return err
	}
	jobs := w.Windows[0]
	fmt.Printf("streaming %d jobs over %.1f hours at a %d-core cluster\n",
		len(jobs), (jobs[len(jobs)-1].Submit-jobs[0].Submit)/3600, cores)

	// The live cluster: FCFS with EASY backfilling, the production
	// baseline the paper's learned policies are deployed against.
	cluster, err := gensched.NewCluster(cores, gensched.ClusterConfig{
		Policy:   gensched.MustPolicy("FCFS"),
		Backfill: gensched.BackfillEASY,
	})
	if err != nil {
		return err
	}

	// The learned policy to hot-swap in: the paper's best fitted form,
	// deployed from its textual representation the way a config file or a
	// swap-policy API request would carry it.
	learned, err := gensched.ParsePolicy("L1", "log10(r)*n + 870*log10(s)")
	if err != nil {
		return err
	}
	swapAt := jobs[0].Submit + (jobs[len(jobs)-1].Submit-jobs[0].Submit)/2
	swapped := false

	// The stream: arrivals are known; completions become known as the
	// cluster starts jobs. pending holds the in-flight completions.
	type completion struct {
		at float64
		id int
	}
	var pending []completion
	runtimeOf := make(map[int]float64, len(jobs))
	for _, j := range jobs {
		runtimeOf[j.ID] = j.Runtime
	}
	// schedule records the completion times of freshly started jobs.
	schedule := func(starts []gensched.JobStart) {
		for _, st := range starts {
			pending = append(pending, completion{at: st.Time + runtimeOf[st.ID], id: st.ID})
		}
	}

	next := 0 // next arrival index
	for next < len(jobs) || len(pending) > 0 {
		// The next instant anything happens: an arrival or a completion.
		t := math.Inf(1)
		if next < len(jobs) {
			t = jobs[next].Submit
		}
		for i := range pending {
			if pending[i].at < t {
				t = pending[i].at
			}
		}

		// Mid-stream, swap the policy — before the instant's events, so
		// the swap governs this instant's scheduling pass too.
		if !swapped && t >= swapAt {
			m := cluster.Metrics()
			fmt.Printf("t=%6.1fh  swapping FCFS -> %s  (AveBsld so far: %.2f over %d jobs)\n",
				cluster.Clock()/3600, learned.Name(), m.AveBsld, m.Completed)
			if err := cluster.SwapPolicy(learned); err != nil {
				return err
			}
			swapped = true
		}

		starts, err := cluster.AdvanceTo(t)
		if err != nil {
			return err
		}
		schedule(starts)
		// Apply every event at this instant: completions, then arrivals.
		for i := 0; i < len(pending); i++ {
			if pending[i].at == t {
				if err := cluster.Complete(pending[i].id); err != nil {
					return err
				}
				pending[i] = pending[len(pending)-1]
				pending = pending[:len(pending)-1]
				i--
			}
		}
		for next < len(jobs) && jobs[next].Submit == t {
			if err := cluster.Submit(jobs[next]); err != nil {
				return err
			}
			next++
		}
		schedule(cluster.Flush())
	}

	m := cluster.Metrics()
	fmt.Printf("stream drained: %d jobs completed, %d backfilled, max queue %d\n",
		m.Completed, m.Backfilled, m.MaxQueueLen)
	fmt.Printf("final AveBsld: %.2f   (mean wait %.0fs, utilization %.1f%%)\n",
		m.AveBsld, m.MeanWait, 100*m.Utilization)
	return nil
}
