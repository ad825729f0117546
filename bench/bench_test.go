package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"

	"github.com/hpcsched/gensched/internal/durable"
	"github.com/hpcsched/gensched/internal/fed"
	"github.com/hpcsched/gensched/internal/online"
)

// small shrinks a workload so a stream builds in milliseconds.
func small(w spec) spec {
	w.jobsPerSec, w.warmJobs, w.population = 300, 100, 50
	return w
}

func TestStreamDeterministic(t *testing.T) {
	journals.memory = true // full-size durable stream, as on the reference box
	for _, w := range workloads {
		w := small(w)
		a, err := buildStream(w, 42, 1)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		b, err := buildStream(w, 42, 1)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		c, err := buildStream(w, 43, 1)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if a.hash() != b.hash() || a.want != b.want {
			t.Errorf("%s: same seed, different stream (%s vs %s)", w.name, a.hash(), b.hash())
		}
		if a.hash() == c.hash() {
			t.Errorf("%s: different seeds, same stream %s", w.name, a.hash())
		}
		if a.records != 2*len(a.jobs) || a.warmRec != 2*w.warmJobs {
			t.Errorf("%s: %d records (%d warm-up) for %d jobs (%d warm-up)", w.name, a.records, a.warmRec, len(a.jobs), w.warmJobs)
		}
		total := 0
		for i := range a.ends {
			total += a.opRecords(i)
		}
		if total != a.records {
			t.Errorf("%s: ops carry %d records, stream has %d", w.name, total, a.records)
		}
		if a.want.Submitted != len(a.jobs) || a.want.Completed != len(a.jobs) || a.want.Queued != 0 || a.want.Running != 0 {
			t.Errorf("%s: oracle did not drain: %+v", w.name, a.want)
		}
	}
}

// TestOracleReplay decodes a binary stream back off the wire and replays
// it on a second in-process federation: the result must be the oracle's.
func TestOracleReplay(t *testing.T) {
	w, err := workloadByName("bin-fed-mem")
	if err != nil {
		t.Fatal(err)
	}
	w = small(w)
	s, err := buildStream(w, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := w.fedConfig()
	if err != nil {
		t.Fatal(err)
	}
	fd, err := fed.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var (
		recs   []durable.Record
		starts []online.Start
		apply  = applyFed(fd, &starts)
	)
	for i := range s.ends {
		frame := s.op(i)
		if recs, err = fed.DecodeMsg(frame[4:], recs[:0]); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if len(recs) != s.opRecords(i) {
			t.Fatalf("op %d carries %d records, opRecords says %d", i, len(recs), s.opRecords(i))
		}
		for k := range recs {
			if _, err := apply(&recs[k]); err != nil {
				t.Fatalf("op %d record %d: %v", i, k, err)
			}
		}
	}
	if got := fedView(fd); got != s.want {
		t.Errorf("second replay ended in\n %+v\noracle in\n %+v", got, s.want)
	}
}

// TestClosedPopulation pins what the closed arrival mode promises: the
// number of jobs in the system never exceeds the population.
func TestClosedPopulation(t *testing.T) {
	w, err := workloadByName("bin-deepq")
	if err != nil {
		t.Fatal(err)
	}
	w = small(w)
	jobs, err := genJobs(w, 3, 400)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := w.fedConfig()
	if err != nil {
		t.Fatal(err)
	}
	fd, err := fed.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var starts []online.Start
	apply := applyFed(fd, &starts)
	peak := 0
	err = drive(jobs, w.population, func(r *durable.Record) ([]online.Start, error) {
		st, err := apply(r)
		if s := fd.Status(); s.Queued+s.Running > peak {
			peak = s.Queued + s.Running
		}
		return st, err
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak != w.population {
		t.Errorf("peak jobs in system %d, want the population %d", peak, w.population)
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {0, 1}, {10, 1}, {11, 2}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil) = %v", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if got := spread(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles(3,1,2) = %v, %v", q1, q3)
	}
}

func TestQuiet(t *testing.T) {
	got := quiet([][]float64{{5, 2, 9}, {4, 3, 7, 1}, {6, 1, 8}})
	if want := []float64{4, 1, 7}; !reflect.DeepEqual(got, want) {
		t.Errorf("quiet = %v, want %v", got, want)
	}
}

func TestSpanSelfTime(t *testing.T) {
	// op [0,100] ── decode [5,15]
	//            ├─ apply  [20,80] ── place [25,35]
	//            │                 └─ pass  [40,70]
	//            └─ encode [85,95]
	r := &recorder{spans: []span{
		{name: "op", start: 0, end: 100, parent: -1},
		{name: "decode", start: 5, end: 15, parent: 0},
		{name: "apply", start: 20, end: 80, parent: 0},
		{name: "place", start: 25, end: 35, parent: 2},
		{name: "pass", start: 40, end: 70, parent: 2},
		{name: "encode", start: 85, end: 95, parent: 0},
	}}
	if got, want := r.selfTimes(0), []int64{20, 10, 20, 10, 30, 10}; !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes(0) = %v, want %v", got, want)
	}
	// With 2ns of recording inside every span: each duration shrinks by
	// 2, and a parent gets its children's 2ns back.
	if got, want := r.selfTimes(2), []int64{24, 8, 22, 8, 28, 8}; !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes(2) = %v, want %v", got, want)
	}
	var total int64
	for _, s := range r.selfTimes(0) {
		total += s
	}
	if total != 100 {
		t.Errorf("self times sum to %d, want the root's 100", total)
	}
}

func TestParseProcIO(t *testing.T) {
	r, w, err := parseProcIO("rchar: 3980\nwchar: 12\nsyscr: 9\nsyscw: 4\nread_bytes: 0\nwrite_bytes: 0\ncancelled_write_bytes: 0\n")
	if err != nil || r != 9 || w != 4 {
		t.Errorf("parseProcIO = %d, %d, %v", r, w, err)
	}
	if _, _, err := parseProcIO("rchar: 1\n"); err == nil {
		t.Error("parseProcIO accepted input without syscr/syscw")
	}
	status := "Name:\tschedd\nVmHWM:\t   14632 kB\nvoluntary_ctxt_switches:\t120\nnonvoluntary_ctxt_switches:\t7\n"
	if got := parseStatusField(status, "VmHWM:"); got != 14632 {
		t.Errorf("VmHWM = %d", got)
	}
	if got := parseStatusField(status, "nonvoluntary_ctxt_switches:"); got != 7 {
		t.Errorf("nonvoluntary = %d", got)
	}
	if got := parseStatusField(status, "VmSwap:"); got != 0 {
		t.Errorf("absent field = %d", got)
	}
	if got := parseSchedstat("447020 61867 1\n"); got != 447020 {
		t.Errorf("schedstat = %d", got)
	}
}

const memStatsTrailer = `heap profile: 1: 48 [3: 144] @ heap/1048576
1: 48 [3: 144] @ 0x40a1b2 0x40a2c3
#	0x40a1b1	main.f+0x11	/x/main.go:10

# runtime.MemStats
# Alloc = 1500
# TotalAlloc = 90000
# Sys = 7000000
# Lookups = 0
# Mallocs = 1234
# Frees = 1000
# NextGC = 4194304
# PauseNs = [100 200 300 0 0]
# PauseEnd = [1 2 3 0 0]
# NumGC = 3
# NumForcedGC = 0
# GCCPUFraction = 0.01
# DebugGC = false
# MaxRSS = 14000000
`

func TestParseMemStats(t *testing.T) {
	m, err := parseMemStats(memStatsTrailer)
	if err != nil {
		t.Fatal(err)
	}
	if m.mallocs != 1234 || m.totalAlloc != 90000 || m.numGC != 3 || !reflect.DeepEqual(m.pauseNs, []uint64{100, 200, 300, 0, 0}) {
		t.Errorf("parseMemStats = %+v", m)
	}
	if _, err := parseMemStats("# Mallocs = 1\n"); err == nil {
		t.Error("parseMemStats accepted an incomplete trailer")
	}
	// Cycles 2 and 3 ran after `from`: pauses 200 + 300.
	if got := gcPauseNs(memStats{numGC: 1}, m); got != 500 {
		t.Errorf("gcPauseNs = %d, want 500", got)
	}
	// A wrapped buffer: 7 cycles in a 5-slot ring keeps cycles 3..7.
	wrapped := memStats{numGC: 7, pauseNs: []uint64{60, 70, 30, 40, 50}}
	if got := gcPauseNs(memStats{numGC: 0}, wrapped); got != 250 {
		t.Errorf("gcPauseNs wrapped = %d, want 250", got)
	}
	if got := gcPauseNs(memStats{numGC: 5}, wrapped); got != 130 {
		t.Errorf("gcPauseNs tail = %d, want 130", got)
	}
}

const promPage = `# HELP gensched_sched_passes_total Scheduling passes run.
# TYPE gensched_sched_passes_total counter
gensched_sched_passes_total 4000
gensched_wal_syncs_total 12
# TYPE gensched_queue_depth histogram
gensched_queue_depth_bucket{le="1"} 10
gensched_queue_depth_bucket{le="4"} 30
gensched_queue_depth_bucket{le="+Inf"} 40
gensched_queue_depth_sum 95.5
gensched_queue_depth_count 40
gensched_http_request_duration_seconds_bucket{endpoint="submit",le="1.52587890625e-05"} 90
gensched_http_request_duration_seconds_bucket{endpoint="submit",le="+Inf"} 100
gensched_http_request_duration_seconds_sum{endpoint="submit"} 0.0012
gensched_http_request_duration_seconds_count{endpoint="submit"} 100
`

func TestParseProm(t *testing.T) {
	p, err := parseProm(promPage)
	if err != nil {
		t.Fatal(err)
	}
	if p.values["gensched_sched_passes_total"] != 4000 || p.values["gensched_wal_syncs_total"] != 12 {
		t.Errorf("values = %v", p.values)
	}
	q := p.hists["gensched_queue_depth{}"]
	if q == nil || q.count != 40 || q.sum != 95.5 || len(q.le) != 3 || !math.IsInf(q.le[2], 1) {
		t.Fatalf("queue depth histogram = %+v", q)
	}
	// Rank 20 falls in (1, 4]: 1 + 3·(20−10)/(30−10) = 2.5.
	if got := q.quantile(0.5); got != 2.5 {
		t.Errorf("queue depth p50 = %v, want 2.5", got)
	}
	e := p.hists[`gensched_http_request_duration_seconds{endpoint="submit"}`]
	if e == nil || e.count != 100 || e.sum != 0.0012 {
		t.Fatalf("edge histogram = %+v", e)
	}
	// A later scrape with one more bucket filled in: the difference has
	// 5 observations in (1, 2], 5 in (2, 4] and 10 beyond.
	later := &promHist{le: []float64{1, 2, 4, math.Inf(1)}, cum: []float64{10, 15, 40, 60}, sum: 200, count: 60}
	d := histCombine([]*promHist{later, nil}, []*promHist{q})
	if want := []float64{0, 5, 10, 20}; !reflect.DeepEqual(d.cum, want) || d.count != 20 || d.sum != 104.5 {
		t.Errorf("histCombine = %+v, want cum %v", d, want)
	}
	if _, err := parseProm("gensched_x notanumber\n"); err == nil {
		t.Error("parseProm accepted a malformed sample")
	}
}

const pprofTop = `File: schedd
Type: cpu
Duration: 2s, Total samples = 1s (50.00%)
Showing nodes accounting for 1s, 100% of 1s total
      flat  flat%   sum%        cum   cum%
     400ms 40.00% 40.00%      400ms 40.00%  internal/runtime/syscall.Syscall6
     200ms 20.00% 60.00%      300ms 30.00%  github.com/hpcsched/gensched/internal/schedcore.(*Engine).Pass
     100ms 10.00% 70.00%      100ms 10.00%  net/http.(*conn).serve
     100ms 10.00% 80.00%      100ms 10.00%  encoding/json.(*decodeState).object
      50ms  5.00% 85.00%       50ms  5.00%  github.com/hpcsched/gensched/internal/expr.(*compiled).Eval
      50ms  5.00% 90.00%       50ms  5.00%  runtime.mallocgc
      50ms  5.00% 95.00%       50ms  5.00%  aeshashbody
      50ms  5.00%   100%       50ms  5.00%  github.com/hpcsched/gensched/cmd/schedd.(*server).mutate
`

func TestCPUShares(t *testing.T) {
	got, err := cpuShares(pprofTop)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"syscall": 0.4, "schedcore": 0.2, "nethttp": 0.1, "json": 0.1, "sched": 0.05, "runtime": 0.1, "schedd": 0.05}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Errorf("share[%s] = %v, want %v", k, got[k], v)
		}
	}
	if len(got) != len(want) {
		t.Errorf("shares = %v", got)
	}
	if _, err := cpuShares("no table here\n"); err == nil {
		t.Error("cpuShares accepted output without a table")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the code in step, and within
// the limits of the benchmark contract.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bf struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q, code has %q (or their reasons differ)", i, w.Name, workloads[i].name)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: name or why outside the contract's limits (why is %d chars)", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in code", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit || m.Better != want[i].better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, code has %+v", kind, i, m, want[i])
			}
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
				t.Errorf("%s %q (%q): outside the contract's character set", kind, m.Name, m.Unit)
			}
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound <= 0 || *m.Bound > 0.25)) {
				t.Errorf("%s %q: bound %v", kind, m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd, true)
	check("per_layer", bf.PerLayer, perLayer, false)
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" || bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", bf.Paths, bf.RunSeconds)
	}
}
