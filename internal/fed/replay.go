// Federated replay: route a whole workload deterministically, replay
// each shard's substream on its own engine+goroutine through the shard
// supervisor, and merge the outputs into the canonical (clock, shard,
// seq) order. The concurrency is output-invisible by construction —
// routing happens single-threaded before any shard runs, every shard
// owns its substream, and every merge is a deterministic sort — which
// is what the 1-vs-4-vs-8-shard differential tests pin bit-for-bit
// against sequential single-engine replays of the same substreams.

package fed

import (
	"fmt"
	"sort"

	"github.com/hpcsched/gensched/internal/online"
	"github.com/hpcsched/gensched/internal/sim"
	"github.com/hpcsched/gensched/internal/telemetry"
	"github.com/hpcsched/gensched/internal/workload"
)

// ReplayConfig configures a federated replay.
type ReplayConfig struct {
	Shards      int
	ShardCores  int
	Seed        uint64
	StealFactor float64
	// Workers bounds concurrent shard goroutines (<= 0: one per shard).
	Workers int
	// TraceBuf, when > 0, attaches a per-shard telemetry sink with a
	// decision-trace ring of that capacity; the merged trace lands in
	// Result.Trace.
	TraceBuf int
	// Opt configures each shard's replay. Opt.Telemetry must be nil —
	// per-shard sinks are the federation's to create.
	Opt online.ReplayOptions
}

// ShardStart is a start notification tagged with its shard.
type ShardStart struct {
	Shard int
	online.Start
}

// Result is a drained federated replay.
type Result struct {
	Shards     int
	Placements []int // input job index → shard
	Stolen     int   // placements diverted off their hash-primary shard
	// PerShard holds each shard's batch-exact result over its substream
	// (substream job order = global submit order restricted to the shard).
	PerShard []*sim.Result
	// Merged aggregates the per-shard results in shard order.
	Merged online.Metrics
	// Starts is every job start, merged by (time, shard, substream order).
	Starts []ShardStart
	// Trace is the merged decision trace, ordered by (clock, shard, seq);
	// nil unless TraceBuf > 0.
	Trace []ShardEvent
}

// RouteJobs routes a workload without running it: the single-threaded
// phase of Replay, exported so differential tests can derive the exact
// substreams an independent sequential replay must reproduce. Jobs are
// routed in global submit order (stable on input order for ties), each
// at its own submit time. Returns the per-job placements (input order)
// and the per-shard substreams (submit order).
func RouteJobs(jobs []workload.Job, shards, shardCores int, seed uint64, useEstimates bool, stealFactor float64) (placements []int, subs [][]workload.Job, stolen int, err error) {
	router, err := NewRouter(shards, shardCores, seed, useEstimates, stealFactor)
	if err != nil {
		return nil, nil, 0, err
	}
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return jobs[order[a]].Submit < jobs[order[b]].Submit })
	placements = make([]int, len(jobs))
	subs = make([][]workload.Job, shards)
	for _, i := range order {
		s, err := router.Place(jobs[i].Submit, jobs[i])
		if err != nil {
			return nil, nil, 0, err
		}
		placements[i] = s
		subs[s] = append(subs[s], jobs[i])
	}
	return placements, subs, router.Stolen(), nil
}

// Replay routes jobs across cfg.Shards shard schedulers and replays
// every substream concurrently through the shard supervisor. The result
// is bit-identical to replaying each substream sequentially on a single
// engine and merging in (clock, shard, seq) order — concurrency changes
// no output bit.
//
//gensched:allow deadlint driver of the root BenchmarkFederationThroughput, whose scaling_x floor CI gates
func Replay(jobs []workload.Job, cfg ReplayConfig) (*Result, error) {
	if cfg.Opt.Telemetry != nil {
		return nil, fmt.Errorf("fed: ReplayConfig.Opt.Telemetry must be nil; per-shard sinks are created from TraceBuf")
	}
	placements, subs, stolen, err := RouteJobs(jobs, cfg.Shards, cfg.ShardCores, cfg.Seed, cfg.Opt.UseEstimates, cfg.StealFactor)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Shards:     cfg.Shards,
		Placements: placements,
		Stolen:     stolen,
		PerShard:   make([]*sim.Result, cfg.Shards),
	}
	sinks := make([]*telemetry.Sink, cfg.Shards)
	if cfg.TraceBuf > 0 {
		for i := range sinks {
			sinks[i] = telemetry.NewSink(cfg.TraceBuf)
		}
	}
	err = runShards(cfg.Workers, cfg.Shards, func(s int) error {
		opt := cfg.Opt
		opt.Telemetry = sinks[s]
		r, rerr := online.Replay(cfg.ShardCores, subs[s], opt)
		if rerr != nil {
			return fmt.Errorf("fed: shard %d: %w", s, rerr)
		}
		res.PerShard[s] = r
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Merge phase, all in fixed shard order.
	per := make([]online.Metrics, cfg.Shards)
	for s, r := range res.PerShard {
		per[s] = online.Metrics{
			Submitted:   len(r.Stats),
			Completed:   len(r.Stats),
			Backfilled:  r.Backfilled,
			MaxQueueLen: r.MaxQueueLen,
			AveBsld:     r.AVEbsld,
			MeanWait:    r.MeanWait,
			MaxBSLD:     r.MaxBSLD,
			MaxWait:     r.MaxWait,
			Utilization: r.Utilization,
		}
		for _, st := range r.Stats {
			res.Starts = append(res.Starts, ShardStart{Shard: s, Start: online.Start{
				ID: st.Job.ID, Time: st.Start, Wait: st.Wait, Backfilled: st.Backfilled,
			}})
		}
	}
	res.Merged = MergeMetrics(per)
	// Shards were appended in ascending order with substreams in submit
	// order, so a stable sort by start time completes the merge order.
	sort.SliceStable(res.Starts, func(i, j int) bool { return res.Starts[i].Time < res.Starts[j].Time })
	if cfg.TraceBuf > 0 {
		res.Trace = MergeTraces(sinks)
	}
	return res, nil
}

// MergeTraces exports the full per-shard decision traces (slice index =
// shard) merged into the canonical (clock, shard, seq) order. Nil sinks
// contribute nothing.
func MergeTraces(sinks []*telemetry.Sink) []ShardEvent {
	var evs []ShardEvent
	for s, sink := range sinks {
		if sink == nil || sink.Trace == nil {
			continue
		}
		for _, e := range sink.Trace.Events(1, 0) {
			evs = append(evs, ShardEvent{Shard: s, Event: e})
		}
	}
	return sortShardEvents(evs)
}
