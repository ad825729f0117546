package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/hpcsched/gensched/internal/durable"
	"github.com/hpcsched/gensched/internal/fed"
	"github.com/hpcsched/gensched/internal/online"
)

// runAll is `go run ./bench`: every workload's untraced rounds
// round-robin, then one traced pass each, every metric printed by name
// and unit, and the reports written under bench/out.
func runAll(bin string, seed uint64, roundSecs float64, rounds int) error {
	res, err := measure(bin, workloads, seed, roundSecs, rounds)
	if err != nil {
		return err
	}
	e2e := make([]map[string]float64, len(res))
	layers := make([]map[string]float64, len(res))
	for i, r := range res {
		e2e[i] = r.e2e()
		if layers[i], err = r.tracedPass(bin, seed); err != nil {
			return err
		}
	}
	fmt.Println("\n# end-to-end (tracing off,", rounds, "rounds)")
	for i, r := range res {
		r.printMetrics(endToEnd, e2e[i])
	}
	fmt.Println("\n# per layer (one traced round + in-process span ladder)")
	for i, r := range res {
		r.printMetrics(perLayer, layers[i])
	}
	rungs, err := measureRungs(res, e2e)
	if err != nil {
		return err
	}
	md := ladderMarkdown(seed, res, layers, rungs)
	fmt.Println()
	fmt.Print(md)
	if err := os.WriteFile(filepath.Join(outDir, "ladder.md"), []byte(md), 0o644); err != nil {
		return err
	}
	return writeResults(filepath.Join(outDir, "results.json"), seed, res, e2e, layers)
}

// writeResults saves, per workload, the two result objects of the
// benchmark contract (end-to-end and per-layer).
func writeResults(path string, seed uint64, res []*result, e2e, layers []map[string]float64) error {
	type entry struct {
		Workload string         `json:"workload"`
		Seed     uint64         `json:"seed"`
		EndToEnd contractResult `json:"end_to_end"`
		PerLayer contractResult `json:"per_layer"`
	}
	out := make([]entry, len(res))
	failed := 0
	for i, r := range res {
		out[i] = entry{r.w.name, seed, r.contract(endToEnd, e2e[i]), r.contract(perLayer, layers[i])}
		failed += r.failed
	}
	b, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d ops failed", failed)
	}
	return nil
}

// rung is one step of the ladder from the bare engine to HTTP over TCP.
type rung struct {
	name        string
	stream      string
	eventsPerS  float64
	usPerEvent  float64
	description string
}

func indexOf(res []*result, name string) int {
	for i, r := range res {
		if r.w.name == name {
			return i
		}
	}
	return -1
}

// measureRungs times the in-process rungs on the streams the socket
// rungs ran, so each step adds one thing: the engine alone, the engine
// plus a journal append (no fsync), the live 4-shard federation, then the
// two end-to-end workloads over TCP.
func measureRungs(res []*result, e2e []map[string]float64) ([]rung, error) {
	hi, bi := indexOf(res, "http-mem"), indexOf(res, "bin-fed-mem")
	if hi < 0 || bi < 0 {
		return nil, fmt.Errorf("the rung table needs http-mem and bin-fed-mem")
	}
	httpMem, binFed := res[hi], res[bi]
	recs1, err := prefixRecords(httpMem.w, httpMem.s.jobs)
	if err != nil {
		return nil, err
	}
	cfg1, err := httpMem.w.fedConfig()
	if err != nil {
		return nil, err
	}
	engine := func(journal bool) (float64, error) {
		s, err := online.New(cfg1.ShardCores, cfg1.Opt)
		if err != nil {
			return 0, err
		}
		var st *durable.Store
		if journal {
			dir := filepath.Join(journals.dir, "rung-journal")
			if err := os.RemoveAll(dir); err != nil {
				return 0, err
			}
			defer os.RemoveAll(dir)
			if st, _, err = durable.Open(dir, durable.Options{SyncEvery: 1 << 30}); err != nil {
				return 0, err
			}
			defer st.Close()
		}
		t := time.Now()
		for i := range recs1 {
			r := &recs1[i]
			if r.Op == durable.OpSubmit {
				_, err = s.SubmitAt(r.Now, r.Job)
			} else {
				_, err = s.CompleteAt(r.Now, r.ID)
			}
			if err == nil && st != nil {
				err = st.Append(r)
			}
			if err != nil {
				return 0, err
			}
		}
		return float64(len(recs1)) / time.Since(t).Seconds(), nil
	}
	bare, err := engine(false)
	if err != nil {
		return nil, err
	}
	journaled, err := engine(true)
	if err != nil {
		return nil, err
	}
	recs4, err := prefixRecords(binFed.w, binFed.s.jobs)
	if err != nil {
		return nil, err
	}
	cfg4, err := binFed.w.fedConfig()
	if err != nil {
		return nil, err
	}
	fd, err := fed.New(cfg4)
	if err != nil {
		return nil, err
	}
	var starts []online.Start
	apply := applyFed(fd, &starts)
	t := time.Now()
	for i := range recs4 {
		if _, err := apply(&recs4[i]); err != nil {
			return nil, err
		}
	}
	live := float64(len(recs4)) / time.Since(t).Seconds()
	mk := func(name, stream, desc string, eps float64) rung {
		return rung{name: name, stream: stream, description: desc, eventsPerS: eps, usPerEvent: 1e6 / eps}
	}
	return []rung{
		mk("bare online replay", "http-mem", "online.Scheduler.SubmitAt/CompleteAt in-process, no telemetry", bare),
		mk("+ journal", "http-mem", "the same plus durable.Store.Append per record, no fsync", journaled),
		mk("live federation", "bin-fed-mem", "fed.Federation.Submit/Complete in-process, 4 shards", live),
		mk("binary over TCP", "bin-fed-mem", "real schedd, frames of 64 records (events_per_s)", e2e[bi]["events_per_s"]),
		mk("HTTP over TCP", "http-mem", "real schedd, one JSON request per record (events_per_s)", e2e[hi]["events_per_s"]),
	}, nil
}

// ladderMarkdown renders the rung table and, per workload, how the
// client-observed round trip splits into what the in-process spans
// explain and the daemon's edge.
func ladderMarkdown(seed uint64, res []*result, layers []map[string]float64, rungs []rung) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# The ladder (seed %d, client and daemon on one CPU)\n\n", seed)
	b.WriteString("| rung | stream | events/s | µs/event | what runs |\n|---|---|---:|---:|---|\n")
	for _, r := range rungs {
		fmt.Fprintf(&b, "| %s | %s | %.0f | %.2f | %s |\n", r.name, r.stream, r.eventsPerS, r.usPerEvent, r.description)
	}
	b.WriteString("\n## Where one round trip goes\n\n")
	b.WriteString("The first column is the client's median round trip of one writer op in the traced round,\n")
	b.WriteString("as measured (interference included, unlike the end-to-end `op_p50_us`). The in-process spans\n")
	b.WriteString("(wire decode, the apply call with the router, engine and journal below it, response\n")
	b.WriteString("encode) explain the first share; `schedd.edge_us_per_op` — sockets, syscalls, net/http,\n")
	b.WriteString("JSON, goroutine wake-ups, the client's own send and receive — is the rest by definition,\n")
	b.WriteString("so the two account for 100 % of the round trip.\n\n")
	b.WriteString("| workload | op p50 µs | spans µs | spans % | edge µs | edge % | trace.overhead_ratio |\n|---|---:|---:|---:|---:|---:|---:|\n")
	for i, r := range res {
		// The traced round's own p50 is what edge_us_per_op was taken from.
		edge := layers[i]["schedd.edge_us_per_op"]
		op := edge + layers[i]["spans_us_per_op"]
		fmt.Fprintf(&b, "| %s | %.1f | %.1f | %.0f %% | %.1f | %.0f %% | %.3f |\n", r.w.name,
			op, op-edge, 100*(op-edge)/op, edge, 100*edge/op, layers[i]["trace.overhead_ratio"])
	}
	return b.String()
}
