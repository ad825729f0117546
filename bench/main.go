// Command bench is the socket-level performance ladder: it boots the
// real cmd/schedd binary on loopback, replays fixed-seed Lublin + Tsafrir
// streams over HTTP and the binary wire in five workloads, checks every
// reply and the daemon's final state against an in-process oracle, and
// reports end-to-end metrics (tracing off) and per-layer metrics (one
// traced pass). See README.md in this directory.
//
//	go run ./bench                                   every workload, every metric
//	go run ./bench -workload http-mem -seed 7        one workload, end to end
//	go run ./bench -workload http-mem -trace 1       its per-layer metrics
//	go run ./bench -selfcheck                        the repeatability check
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// defaultRounds is the number of fresh daemons one run measures; a
// metric's value is the median over them, and set-up is timed once per
// round.
const defaultRounds = 5

// profileSecs is the length of the daemon CPU profile in a traced round:
// the nominal length of a timed phase, rounded up.
var profileSecs = 2

func main() {
	var (
		workload  = flag.String("workload", "", "run one workload (default: all of them, round-robin)")
		seed      = flag.Uint64("seed", 42, "stream seed; the daemon only ever sees the generated inputs")
		seconds   = flag.Float64("seconds", 8, "measuring time of one run, split evenly over the rounds")
		trace     = flag.Int("trace", 0, "1 = the traced pass: report per-layer metrics instead of end-to-end ones")
		rounds    = flag.Int("rounds", defaultRounds, "fresh daemons per workload; a value is the median over them")
		selfcheck = flag.Bool("selfcheck", false, "run every workload on ten seeds, twice, and hold spread and drift against the bounds in BENCHMARK.json")
	)
	flag.Parse()
	if flag.NArg() > 0 || *rounds < 1 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cleanup()
		os.Exit(130)
	}()
	err := run(*workload, *seed, *seconds, *trace == 1, *rounds, *selfcheck)
	cleanup()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// journals is where the durable workload's data directories go, and
// whether that place is memory-backed (see journalRoot).
var journals struct {
	dir    string
	memory bool
}

// cleanup stops every daemon still running and removes the journals. It
// runs on every exit path.
func cleanup() {
	killAll()
	if journals.dir != "" {
		_ = os.RemoveAll(journals.dir) // scratch; a leftover is swept by the next run's RemoveAll
	}
}

func run(name string, seed uint64, seconds float64, traced bool, rounds int, selfcheck bool) error {
	bin, err := buildDaemon()
	if err != nil {
		return err
	}
	if journals.dir, journals.memory, err = journalRoot(); err != nil {
		return err
	}
	fmt.Printf("# journals of the durable workload under %s (memory-backed: %v)\n", journals.dir, journals.memory)
	// After the build, which is welcome to every CPU.
	cpu, err := pinToOneCPU()
	if err != nil {
		return err
	}
	fmt.Printf("# client and daemon pinned to CPU %d\n", cpu)
	roundSecs := seconds / float64(rounds)
	if s := int(roundSecs + 0.999); s > profileSecs {
		profileSecs = s
	}
	switch {
	case selfcheck:
		return runSelfcheck(bin, seconds, rounds)
	case name == "":
		return runAll(bin, seed, roundSecs, rounds)
	}
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	if !traced {
		res, err := measure(bin, []spec{w}, seed, roundSecs, rounds)
		if err != nil {
			return err
		}
		m := res[0].e2e()
		res[0].printMetrics(endToEnd, m)
		return res[0].printJSON(endToEnd, m)
	}
	// The traced pass: two untraced rounds give the throughput the
	// traced round is held against.
	res, err := measure(bin, []spec{w}, seed, roundSecs, 2)
	if err != nil {
		return err
	}
	layers, err := res[0].tracedPass(bin, seed)
	if err != nil {
		return err
	}
	res[0].printMetrics(perLayer, layers)
	return res[0].printJSON(perLayer, layers)
}

// result is one workload's run: its stream, every untraced round, and
// the op accounting the contract asks for.
type result struct {
	w         spec
	s         *stream
	rounds    []*round
	attempted int
	failed    int
}

// add books a finished round. The reactive workload has no precomputed
// oracle; its rounds are held against each other instead — same stream,
// same promotions, same final state, every time.
func (res *result) add(r *round) error {
	res.attempted += r.attempted
	res.failed += r.failed
	if res.w.adapt {
		n := len(res.s.jobs)
		switch {
		case r.adapt.LastError != "":
			return fmt.Errorf("adaptive loop failed: %s", r.adapt.LastError)
		case r.adapt.Rounds == 0:
			return fmt.Errorf("adaptive loop ran no round")
		case r.got.Submitted != n || r.got.Completed != n:
			return fmt.Errorf("stream of %d jobs ended with %d submitted, %d completed", n, r.got.Submitted, r.got.Completed)
		}
		if len(res.rounds) > 0 {
			first := res.rounds[0]
			if r.got != first.got || r.adapt != first.adapt {
				return fmt.Errorf("adaptive rounds diverged:\n got  %+v %+v\n want %+v %+v", r.got, r.adapt, first.got, first.adapt)
			}
		}
	}
	res.rounds = append(res.rounds, r)
	return nil
}

// measure runs the untraced rounds of the given workloads round-robin
// (A1 B1 C1 A2 B2 …), so that each workload samples the whole run and not
// one stretch of the host's mood.
func measure(bin string, ws []spec, seed uint64, roundSecs float64, rounds int) ([]*result, error) {
	out := make([]*result, len(ws))
	for i, w := range ws {
		t0 := time.Now()
		s, err := buildStream(w, seed, roundSecs)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		s.genSecs = time.Since(t0).Seconds()
		fmt.Printf("# %s seed %d: %d jobs, %d ops (%d warm-up), stream %s generated in %.2fs\n",
			w.name, seed, len(s.jobs), len(s.ends), s.warmOps, s.hash(), s.genSecs)
		out[i] = &result{w: w, s: s}
	}
	for i := 0; i < rounds; i++ {
		for _, res := range out {
			r, err := runRound(res.w, res.s, bin, false)
			if err == nil {
				err = res.add(r)
			}
			if err != nil {
				return nil, fmt.Errorf("%s round %d: %w", res.w.name, i+1, err)
			}
			// The round as it was, interference included; the reported
			// metrics are computed over all rounds (see metrics.go).
			fmt.Printf("# %s round %d: %.0f events in %.3fs (%.0f/s), set-up %.3fs, op p50 %.1fus, %d reads, recover %.4fs",
				res.w.name, i+1, r.events(), r.timed.wallSecs, r.events()/r.timed.wallSecs, r.setupSecs,
				percentile(sortedCopy(r.timed.latUs), 50), len(r.reads.latUs), r.recoverSecs)
			if res.w.adapt {
				fmt.Printf(", %d adaptive rounds, %d promotions, ends on %s", r.adapt.Rounds, r.adapt.Promotions, r.adapt.Policy)
			}
			fmt.Println()
		}
	}
	return out, nil
}

// tracedPass runs one traced round and the in-process span ladder and
// returns the per-layer metrics.
func (res *result) tracedPass(bin string, seed uint64) (map[string]float64, error) {
	t, err := runRound(res.w, res.s, bin, true)
	if err == nil {
		err = res.add(t)
	}
	if err != nil {
		return nil, fmt.Errorf("%s traced round: %w", res.w.name, err)
	}
	res.rounds = res.rounds[:len(res.rounds)-1] // measured under the profiler: not an end-to-end sample
	shares, err := profileShares(t.profile)
	if err != nil {
		return nil, err
	}
	l, err := runLadder(res.w, res.s, seed)
	if err != nil {
		return nil, fmt.Errorf("%s span ladder: %w", res.w.name, err)
	}
	if err := l.rec.writeChrome(filepath.Join(outDir, "trace-"+res.w.name+".json"), traceFileSpans); err != nil {
		return nil, err
	}
	raw := make([]float64, len(res.rounds))
	for i, r := range res.rounds {
		raw[i] = r.events() / r.timed.wallSecs
	}
	return layerMetrics(res.w, res.s, t, l, shares, median(raw)), nil
}

func (res *result) printMetrics(defs []metricDef, m map[string]float64) {
	for _, d := range defs {
		fmt.Printf("%-16s %-38s %16.4f %s\n", res.w.name, d.name, m[d.name], d.unit)
	}
}

// contractResult is the result object of the benchmark contract.
type contractResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (res *result) contract(defs []metricDef, m map[string]float64) contractResult {
	out := contractResult{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		out.Metrics[d.name] = metricValue{m[d.name], d.unit}
	}
	return out
}

// printJSON writes the contract's result line. It is the last thing on
// standard output.
func (res *result) printJSON(defs []metricDef, m map[string]float64) error {
	b, err := json.Marshal(res.contract(defs, m))
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if res.failed > 0 {
		return fmt.Errorf("%s: %d of %d ops failed", res.w.name, res.failed, res.attempted)
	}
	return nil
}
