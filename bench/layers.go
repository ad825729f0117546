package main

import (
	"fmt"
	"os/exec"
)

// perLayer is the traced pass's metric list: single layers, ungated.
// Three sources feed it — (S) the in-process span ladder, (C) counters
// scraped around one traced round, (P) that round's CPU profile
// attributed by the package of the leaf function. A metric that does not
// apply to a workload (the router at one shard, the journal in memory,
// the trainer without the adaptive loop) reads 0 there. README.md lists,
// per metric, the end-to-end metric it should move and on which workload.
var perLayer = []metricDef{
	// client: shows the generator is not the bottleneck; carries the ungated tails.
	{"client.stream_gen_s", "s", "lower"},
	{"client.cpu_us_per_event", "us", "lower"},
	{"client.encode_ns_per_rec", "ns", "lower"},
	{"client.op_p99_us", "us", "lower"},
	{"client.read_p90_us", "us", "lower"},
	{"client.reads", "count", "higher"},
	// schedd edge: what the in-process spans do not explain.
	{"schedd.boot_ms", "ms", "lower"},
	{"schedd.edge_us_per_op", "us", "lower"},
	{"schedd.server_p50_us", "us", "lower"},
	{"schedd.nethttp_cpu_share", "1", "lower"},
	{"schedd.json_cpu_share", "1", "lower"},
	{"schedd.syscall_cpu_share", "1", "lower"},
	{"schedd.runtime_cpu_share", "1", "lower"},
	{"schedd.alloc_bytes_per_event", "B", "lower"},
	{"schedd.gc_cycles", "count", "lower"},
	{"schedd.gc_pause_ms", "ms", "lower"},
	{"schedd.read_syscalls_per_event", "1", "lower"},
	{"schedd.write_syscalls_per_event", "1", "lower"},
	{"schedd.ctx_switches_per_event", "1", "lower"},
	// fed wire codec.
	{"fed_wire.decode_ns_per_rec", "ns", "lower"},
	{"fed_wire.encode_resp_ns_per_frame", "ns", "lower"},
	{"fed_wire.req_bytes_per_event", "B", "lower"},
	{"fed_wire.resp_bytes_per_event", "B", "lower"},
	// fed router.
	{"fed_router.place_ns_per_job", "ns", "lower"},
	{"fed_router.locate_release_ns_per_job", "ns", "lower"},
	{"fed_router.stolen_share", "1", "lower"},
	// federation dispatch.
	{"fed.submit_self_ns", "ns", "lower"},
	{"fed.complete_self_ns", "ns", "lower"},
	{"fed.status_us", "us", "lower"},
	{"fed.cpu_share", "1", "lower"},
	// online engine front.
	{"online.enqueue_ns_per_event", "ns", "lower"},
	{"online.cpu_share", "1", "lower"},
	// scheduling pass.
	{"schedcore.pass_ns_p50", "ns", "lower"},
	{"schedcore.pass_ns_p90", "ns", "lower"},
	{"schedcore.passes_per_event", "1", "lower"},
	{"schedcore.queue_depth_p50", "count", "lower"},
	{"schedcore.cpu_share", "1", "lower"},
	// policy scoring (internal/sched + internal/expr).
	{"sched.score_ns_per_eval", "ns", "lower"},
	{"sched.cpu_share", "1", "lower"},
	// journal.
	{"durable.encode_ns_per_rec", "ns", "lower"},
	{"durable.append_ns_per_rec", "ns", "lower"},
	{"durable.sync_us", "us", "lower"},
	{"durable.wal_bytes_per_event", "B", "lower"},
	{"durable.syncs_per_event", "1", "lower"},
	{"durable.checkpoint_ms", "ms", "lower"},
	{"durable.recover_recs_per_s", "1/s", "higher"},
	{"durable.cpu_share", "1", "lower"},
	// telemetry.
	{"telemetry.overhead_ratio", "1", "higher"},
	{"telemetry.scrape_us", "us", "lower"},
	{"telemetry.cpu_share", "1", "lower"},
	// adaptive stack.
	{"adaptive.rounds", "count", "higher"},
	{"adaptive.promotions", "count", "higher"},
	{"adaptive.round_ms_p50", "ms", "lower"},
	{"adaptive.stall_share", "1", "lower"},
	{"adaptive.cpu_share", "1", "lower"},
	{"trainer.sample_tuple_us", "us", "lower"},
	{"trainer.score_tuple_ms", "ms", "lower"},
	{"trainer.cpu_share", "1", "lower"},
	{"mlfit.fit_all_ms", "ms", "lower"},
	{"mlfit.cpu_share", "1", "lower"},
	// the tracing itself.
	{"trace.overhead_ratio", "1", "higher"},
	{"trace.spans", "count", "lower"},
}

// stallUs separates an adaptive retraining round from an ordinary op:
// ordinary round trips are tens of microseconds (p99 under 0.2 ms),
// rounds are milliseconds.
const stallUs = 1000

// profileShares runs `go tool pprof -top` on the traced round's CPU
// profile and folds it by layer.
func profileShares(path string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=100000", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof %s: %w", path, err)
	}
	return cpuShares(string(out))
}

// layerMetrics assembles the per-layer metrics of one workload from the
// traced round t, the span ladder l, the profile shares and the untraced
// rounds' median throughput (as measured, like the traced round's).
func layerMetrics(w spec, s *stream, t *round, l *ladder, shares map[string]float64, untracedEventsPerS float64) map[string]float64 {
	m := map[string]float64{}
	ev := t.events()
	ops := sortedCopy(t.timed.latUs)
	rd := sortedCopy(t.reads.latUs)
	dproc := func(f func(procSample) int64) float64 { return float64(f(t.after.proc) - f(t.before.proc)) }
	prom := func(name string) float64 { return t.after.prom.values[name] - t.before.prom.values[name] }

	m["client.stream_gen_s"] = s.genSecs
	m["client.cpu_us_per_event"] = float64(t.clientCPUNs) / 1e3 / ev
	m["client.op_p99_us"] = percentile(ops, 99)
	m["client.read_p90_us"] = percentile(rd, 90)
	m["client.reads"] = float64(len(rd))

	m["schedd.boot_ms"] = t.bootSecs * 1e3
	m["schedd.alloc_bytes_per_event"] = float64(t.after.mem.totalAlloc-t.before.mem.totalAlloc) / ev
	m["schedd.gc_cycles"] = float64(t.after.mem.numGC - t.before.mem.numGC)
	m["schedd.gc_pause_ms"] = float64(gcPauseNs(t.before.mem, t.after.mem)) / 1e6
	m["schedd.read_syscalls_per_event"] = dproc(func(p procSample) int64 { return p.syscr }) / ev
	m["schedd.write_syscalls_per_event"] = dproc(func(p procSample) int64 { return p.syscw }) / ev
	m["schedd.ctx_switches_per_event"] = dproc(func(p procSample) int64 { return p.ctxSw }) / ev
	m["schedd.server_p50_us"] = edgeP50(t) * 1e6
	for _, layer := range []string{"nethttp", "json", "syscall", "runtime"} {
		m["schedd."+layer+"_cpu_share"] = shares[layer]
	}
	for _, layer := range []string{"fed", "online", "schedcore", "sched", "durable", "telemetry", "adaptive", "trainer", "mlfit"} {
		m[layer+".cpu_share"] = shares[layer]
	}

	m["schedcore.passes_per_event"] = prom("gensched_sched_passes_total") / ev
	m["schedcore.queue_depth_p50"] = histDelta(t, "gensched_queue_depth{}").quantile(0.5)
	m["telemetry.scrape_us"] = median(t.reads.scrapeUs)
	m["trace.overhead_ratio"] = ev / t.timed.wallSecs / untracedEventsPerS

	if w.adapt {
		m["adaptive.rounds"] = float64(t.adapt.Rounds)
		m["adaptive.promotions"] = float64(t.adapt.Promotions)
		var stalls []float64
		for _, us := range t.timed.latUs {
			if us > stallUs {
				stalls = append(stalls, us/1e3)
			}
		}
		m["adaptive.round_ms_p50"] = median(stalls)
		m["adaptive.stall_share"] = sum(stalls) / 1e3 / t.timed.wallSecs
	}

	// Span ladder.
	inside := l.spanNs
	durs := l.rec.byName(l.rec.durations())
	selfs := l.rec.byName(l.rec.selfTimes(int64(inside)))
	net := func(name string) float64 { // summed duration net of the recorder's own clock read
		return sum(durs[name]) - inside*float64(len(durs[name]))
	}
	recs, frames := float64(l.records), float64(l.ops)
	m["trace.spans"] = float64(len(l.rec.spans))
	m["client.encode_ns_per_rec"] = net("client.encode") / recs
	m["spans_us_per_op"] = median(l.opNs) / 1e3 // for ladder.md; not a reported metric
	m["schedd.edge_us_per_op"] = percentile(ops, 50) - m["spans_us_per_op"]
	m["online.enqueue_ns_per_event"] = net("online.enqueue") / recs
	pass := sortedCopy(durs["schedcore.pass"])
	m["schedcore.pass_ns_p50"] = percentile(pass, 50) - inside
	m["schedcore.pass_ns_p90"] = percentile(pass, 90) - inside
	m["sched.score_ns_per_eval"] = l.scoreNsPerEval
	m["telemetry.overhead_ratio"] = l.telemetryRatio
	if w.binary {
		m["fed_wire.decode_ns_per_rec"] = net("fed_wire.decode") / recs
		m["fed_wire.encode_resp_ns_per_frame"] = net("fed_wire.encode_resp") / frames
		m["fed_wire.req_bytes_per_event"] = float64(l.reqBytes) / recs
		m["fed_wire.resp_bytes_per_event"] = float64(l.respBytes) / recs
	}
	if w.shards > 1 {
		m["fed_router.place_ns_per_job"] = net("fed_router.place") / float64(l.submits)
		m["fed_router.locate_release_ns_per_job"] = net("fed_router.locate_release") / float64(l.completes)
		m["fed_router.stolen_share"] = float64(l.stolen) / float64(l.submits)
		m["fed.submit_self_ns"] = median(selfs["fed.submit"])
		m["fed.complete_self_ns"] = median(selfs["fed.complete"])
		m["fed.status_us"] = l.statusUs
	}
	if w.durable {
		m["durable.encode_ns_per_rec"] = net("durable.encode") / recs
		m["durable.append_ns_per_rec"] = net("durable.append") / recs // encode + CRC + buffered write
		m["durable.sync_us"] = median(durs["durable.sync"]) / 1e3
		m["durable.wal_bytes_per_event"] = float64(l.journal.bytes) / recs
		m["durable.syncs_per_event"] = float64(l.journal.syncs) / recs
		m["durable.checkpoint_ms"] = l.checkpointMs
		m["durable.recover_recs_per_s"] = l.recoverRecsPerS
	}
	if w.adapt {
		m["trainer.sample_tuple_us"] = l.sampleTupleUs
		m["trainer.score_tuple_ms"] = l.scoreTupleMs
		m["mlfit.fit_all_ms"] = l.fitAllMs
	}
	return m
}

// histDelta is the histogram of what a traced round added to the named
// series, summed over the series.
func histDelta(t *round, keys ...string) *promHist {
	var plus, minus []*promHist
	for _, k := range keys {
		plus = append(plus, t.after.prom.hists[k])
		minus = append(minus, t.before.prom.hists[k])
	}
	return histCombine(plus, minus)
}

// edgeP50 is the daemon's own view of its median mutation latency, from
// the Edge histograms of the submit and complete endpoints (HTTP only;
// the binary listener has none).
func edgeP50(t *round) float64 {
	return histDelta(t,
		`gensched_http_request_duration_seconds{endpoint="submit"}`,
		`gensched_http_request_duration_seconds{endpoint="complete"}`).quantile(0.5)
}
