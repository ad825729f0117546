package main

import "sort"

// metricDef names one reported number. BENCHMARK.json lists the same
// names, units and directions; a unit test keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" | "higher"
}

// endToEnd is what a user of the daemon sees, measured with tracing off.
// Later issues refer to these metrics by exactly these names.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"events_per_s", "1/s", "higher"},
	{"op_p50_us", "us", "lower"},
	{"op_p90_us", "us", "lower"},
	{"read_p50_us", "us", "lower"},
	{"cpu_us_per_event", "us", "lower"},
	{"allocs_per_event", "1", "lower"},
	{"io_syscalls_per_event", "1", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"recover_s", "s", "lower"},
}

// Wall-clock noise on a shared host is one-sided: a neighbour on the
// same physical core, a hypervisor pause or a cache eviction only ever
// make an op slower. So every time metric is reported as its
// interference-free value — the minimum over the run's rounds, taken at
// the finest grain that repeats. The rounds of a run replay the same
// stream, so op i of one round is op i of every other: its fastest round
// trip among the rounds is what it costs when nothing gets in the way,
// and throughput is the events divided by the sum of those. On the
// reference box this repeats within 1–3 % where per-round medians swing
// by 20–40 %. The price: work that lands on a different op each round
// (a GC cycle) drops out of the time metrics; it stays visible in
// cpu_us_per_event, allocs_per_event and schedd.gc_*. Counts are medians
// over the rounds. Values depend on the number of rounds, which is why it
// is a constant of the benchmark.

// quiet returns, per position, the minimum over the rounds' series.
func quiet(series [][]float64) []float64 {
	n := len(series[0])
	for _, s := range series {
		if len(s) < n {
			n = len(s)
		}
	}
	out := append([]float64(nil), series[0][:n]...)
	for _, s := range series[1:] {
		for i, v := range s[:n] {
			if v < out[i] {
				out[i] = v
			}
		}
	}
	return out
}

// e2e computes a run's end-to-end metrics from its rounds.
func (res *result) e2e() map[string]float64 {
	rs := res.rounds
	pick := func(f func(*round) []float64) [][]float64 {
		out := make([][]float64, len(rs))
		for i, r := range rs {
			out[i] = f(r)
		}
		return out
	}
	col := func(f func(*round) float64) []float64 {
		out := make([]float64, len(rs))
		for i, r := range rs {
			out[i] = f(r)
		}
		return out
	}
	ev := rs[0].events()
	ops := quiet(pick(func(r *round) []float64 { return r.timed.latUs }))
	warm := quiet(pick(func(r *round) []float64 { return r.warm.latUs }))
	rd := quiet(pick(func(r *round) []float64 { return r.reads.latUs }))
	quietSecs := sum(ops) / 1e6
	dproc := func(f func(procSample) int64) func(*round) float64 {
		return func(r *round) float64 { return float64(f(r.after.proc) - f(r.before.proc)) }
	}
	// The daemon's share of the timed wall time holds under interference
	// (both stretch together), so CPU per event at interference-free
	// speed is that share of the quiet time.
	cpuShare := sum(col(dproc(func(p procSample) int64 { return p.cpuNs }))) / 1e9 /
		sum(col(func(r *round) float64 { return r.timed.wallSecs }))
	sort.Float64s(ops)
	sort.Float64s(rd)
	return map[string]float64{
		"setup_s":          minOf(col(func(r *round) float64 { return r.setupSecs - r.warm.wallSecs })) + sum(warm)/1e6,
		"events_per_s":     ev / quietSecs,
		"op_p50_us":        percentile(ops, 50),
		"op_p90_us":        percentile(ops, 90),
		"read_p50_us":      percentile(rd, 50),
		"cpu_us_per_event": cpuShare * quietSecs * 1e6 / ev,
		"allocs_per_event": median(col(func(r *round) float64 {
			return float64(r.after.mem.mallocs-r.before.mem.mallocs) / ev
		})),
		"io_syscalls_per_event": median(col(dproc(func(p procSample) int64 { return p.syscr + p.syscw }))) / ev,
		"peak_rss_mb":           median(col(func(r *round) float64 { return float64(r.after.proc.peakRSSkB) / 1024 })),
		"recover_s":             minOf(col(func(r *round) float64 { return r.recoverSecs })),
	}
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
