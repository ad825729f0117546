// The live federation: N shard schedulers behind one deterministic
// router, with per-shard locks so concurrent daemon requests targeting
// different shards proceed in parallel. Routing decisions are
// serialized under the federation lock — they are the deterministic
// state — while the scheduling work itself runs shard-local.

package fed

import (
	"fmt"
	"sort"
	"sync"

	"github.com/hpcsched/gensched/internal/adaptive"
	"github.com/hpcsched/gensched/internal/durable"
	"github.com/hpcsched/gensched/internal/online"
	"github.com/hpcsched/gensched/internal/sched"
	"github.com/hpcsched/gensched/internal/telemetry"
	"github.com/hpcsched/gensched/internal/workload"
)

// Config sizes a Federation.
type Config struct {
	// Shards is the number of shard schedulers (>= 1).
	Shards int
	// ShardCores is each shard's machine size; total federated capacity
	// is Shards × ShardCores, and one job must fit on one shard.
	ShardCores int
	// Opt configures every shard scheduler identically.
	Opt online.Options
	// Seed derives the router's per-shard ring seeds via dist.Split.
	Seed uint64
	// StealFactor tunes the router's least-loaded fallback; <= 0 means
	// the default.
	StealFactor float64
	// TraceBuf, when > 0, attaches a telemetry sink per shard with a
	// decision-trace ring of that capacity.
	TraceBuf int
	// Workers bounds concurrent shard goroutines in fan-out paths
	// (replay, drains); <= 0 means one per shard.
	Workers int
}

// shard is one engine plus its lock, sink, adaptive loop and (in a
// durable federation) its journal. All of it is shard-owned
// single-writer state: every interaction happens under mu, and the
// supervisor's goroutines touch one shard each.
type shard struct {
	mu  sync.Mutex
	s   *online.Scheduler
	tel *telemetry.Sink
	// jtel counts the journal's appends, syncs and checkpoints. It has no
	// trace ring: WAL events are this process's I/O, not decisions a
	// recovery can re-derive (see initShard).
	jtel *telemetry.Sink

	// The adaptive retraining loop (see adapt.go): nil until an
	// adapt-start record attaches one. adCfg is the journaled sizing that
	// started it (carried into snapshots); adErr is the loop's last
	// failure, reported by AdaptStatus.
	ad    *adaptive.Controller
	adCfg *durable.AdaptConfig
	adErr error

	// Durability (nil/zero in a non-durable federation). storeErr latches
	// the first journaling failure; the shard is quarantined in the
	// router at the same moment and never serves a mutation again.
	store       *durable.Store
	storeErr    error
	storeClosed bool
	health      ShardHealth // recovery provenance (static after Open)
	init        durable.InitState
	policyName  string
	policyExpr  string
	lastCkpt    float64

	// Journal-order mirrors of the router's per-shard state: vt is the
	// fluid clock, stolenOnto the steal attribution, both advanced at
	// journal-append time so the shard's snapshot reflects exactly the
	// placements its journal holds — never a placement still in flight.
	vt         float64
	stolenOnto int
}

// Federation is N shard schedulers behind a deterministic router.
// Methods are safe for concurrent use; requests for different shards
// run concurrently, and the placement state is serialized so that the
// placement stream — and therefore every output — is a pure function of
// the request stream.
type Federation struct {
	cfg    Config
	mu     sync.Mutex // guards router, draining, drainErr
	router *Router
	shards []*shard

	// ctl serializes the control fan-outs (policy swaps, adaptive-loop
	// start/stop) so two of them never interleave across shards.
	ctl sync.Mutex

	// dur is non-nil for a durable federation (Open with a data dir).
	dur      *DurableConfig
	draining bool
	drainErr error
}

// New builds a federation of cfg.Shards identical shard schedulers.
func New(cfg Config) (*Federation, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("fed: need at least one shard, got %d", cfg.Shards)
	}
	router, err := NewRouter(cfg.Shards, cfg.ShardCores, cfg.Seed, cfg.Opt.UseEstimates, cfg.StealFactor)
	if err != nil {
		return nil, err
	}
	f := &Federation{cfg: cfg, router: router, shards: make([]*shard, cfg.Shards)}
	for i := range f.shards {
		s, err := online.New(cfg.ShardCores, cfg.Opt)
		if err != nil {
			return nil, err
		}
		f.shards[i] = &shard{}
		f.shards[i].initShard(f, s, durable.InitState{}, "", "")
	}
	return f, nil
}

// ShardCores returns each shard's machine size.
func (f *Federation) ShardCores() int { return f.cfg.ShardCores }

// Stolen returns how many placements the router diverted off their
// hash-primary shard.
func (f *Federation) Stolen() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.router.Stolen()
}

// Batch is one request's commit scope. Its Submit, Complete, AdvanceTo
// and SetPolicy are the federation's mutation bodies. On a durable
// federation each buffers its records in the owning shard's journal and
// marks that shard pending; Commit then syncs every pending shard once.
// A caller applying several records — a binary frame — applies them all
// through one Batch and commits before it replies, so the frame pays one
// fsync per touched shard instead of one per record. The exported
// Federation mutations are one-call batches that commit before they
// return; the daemon advances and swaps policies through a Batch.
//
// Commit empties a Batch for reuse. A Batch on a federation without a
// data dir never allocates; on a durable one, its pending set is
// allocated at the first record and then reused, so a long-lived Batch
// (one per binary connection) allocates nothing once warm, while a
// one-call batch pays one small allocation beside its journal append.
// A Batch is not safe for concurrent use: it belongs to one request
// stream.
type Batch struct {
	f *Federation
	// pending is the set of shards with buffered records: bit k of
	// pending[w] is shard 64w+k. It grows on the first mark and is reused.
	pending []uint64
}

// Batch returns an empty batch over f.
func (f *Federation) Batch() Batch { return Batch{f: f} }

// Submit is a one-record Batch.Submit, committed before it returns.
func (f *Federation) Submit(now float64, j workload.Job, buf []online.Start) (shardIdx int, starts []online.Start, clock float64, err error) {
	b := f.Batch()
	shardIdx, starts, clock, err = b.Submit(now, j, buf)
	return shardIdx, starts, clock, b.Commit(err)
}

// Complete is a one-record Batch.Complete, committed before it returns.
func (f *Federation) Complete(now float64, id int, buf []online.Start) (starts []online.Start, clock float64, err error) {
	b := f.Batch()
	starts, clock, err = b.Complete(now, id, buf)
	return starts, clock, b.Commit(err)
}

// Submit routes and submits one job at time now, returning the shard it
// landed on, the jobs that scheduling pass started (appended to buf, so
// callers can pool), and the owning shard's clock after the pass. On a
// scheduler rejection the placement is released, leaving the router as
// if the request never happened.
func (b *Batch) Submit(now float64, j workload.Job, buf []online.Start) (shardIdx int, starts []online.Start, clock float64, err error) {
	f := b.f
	f.mu.Lock()
	if f.draining {
		f.mu.Unlock()
		return 0, buf, 0, ErrDraining
	}
	shardIdx, err = f.router.Place(now, j)
	f.mu.Unlock()
	if err != nil {
		return 0, buf, 0, err
	}
	sh := f.shards[shardIdx]
	sh.mu.Lock()
	// The shard may have latched between Place and here; a quarantined
	// shard never serves a mutation, so undo the placement and refuse.
	if sh.storeErr != nil {
		sh.mu.Unlock()
		f.mu.Lock()
		f.router.Release(j.ID)
		f.mu.Unlock()
		return shardIdx, buf, 0, &ShardDownError{Shard: shardIdx}
	}
	rec := durable.Record{Op: durable.OpSubmit, Now: now, Job: j}
	st, serr := sh.apply(&rec)
	starts = append(buf, st...) // copy out of the scheduler's scratch
	var jerr error
	if serr == nil {
		jerr = f.journalLocked(b, sh, shardIdx, &rec)
	}
	clock = sh.s.Clock()
	sh.mu.Unlock()
	if serr != nil {
		f.mu.Lock()
		f.router.Release(j.ID)
		f.mu.Unlock()
		return shardIdx, starts, clock, serr
	}
	// A journal failure is reported after the fact: the job IS placed and
	// queued in memory (the placement stands), it just is not durable —
	// the fatal condition ShardBrokenError describes.
	return shardIdx, starts, clock, jerr
}

// Complete reports a completion at time now to the shard the job was
// placed on.
func (b *Batch) Complete(now float64, id int, buf []online.Start) (starts []online.Start, clock float64, err error) {
	f := b.f
	f.mu.Lock()
	if f.draining {
		f.mu.Unlock()
		return buf, 0, ErrDraining
	}
	shardIdx, ok := f.router.Locate(id)
	f.mu.Unlock()
	if !ok {
		return buf, 0, fmt.Errorf("fed: job %d is not active on any shard", id)
	}
	sh := f.shards[shardIdx]
	sh.mu.Lock()
	if sh.storeErr != nil {
		sh.mu.Unlock()
		return buf, 0, &ShardDownError{Shard: shardIdx}
	}
	rec := durable.Record{Op: durable.OpComplete, Now: now, ID: id}
	st, serr := sh.apply(&rec)
	starts = append(buf, st...)
	var jerr error
	if serr == nil {
		jerr = f.journalLocked(b, sh, shardIdx, &rec)
	}
	clock = sh.s.Clock()
	sh.mu.Unlock()
	if serr != nil {
		return starts, clock, serr
	}
	// The completion is applied in memory either way; release the
	// placement and, on a journal failure, report the fatal latch.
	f.mu.Lock()
	f.router.Release(id)
	f.mu.Unlock()
	return starts, clock, jerr
}

// AdvanceTo moves every shard's clock forward to now (clamped per shard
// so no clock moves backward) and returns the merged starts, ordered by
// (time, shard, per-shard pass order). clock is the maximum shard clock
// after the advance.
func (b *Batch) AdvanceTo(now float64, buf []online.Start) (starts []online.Start, clock float64, err error) {
	f := b.f
	f.mu.Lock()
	if f.draining {
		f.mu.Unlock()
		return buf, 0, ErrDraining
	}
	f.mu.Unlock()
	starts = buf
	for i, sh := range f.shards {
		sh.mu.Lock()
		// A latched shard is frozen: advancing its clock in memory without
		// a journal record would diverge its durable state.
		if sh.storeErr != nil {
			sh.mu.Unlock()
			continue
		}
		// The unclamped request time is journaled; apply clamps it against
		// the shard clock, live and in replay alike.
		rec := durable.Record{Op: durable.OpAdvance, Now: now}
		st, aerr := sh.apply(&rec)
		starts = append(starts, st...)
		var jerr error
		if aerr == nil {
			jerr = f.journalLocked(b, sh, i, &rec)
		}
		if c := sh.s.Clock(); c > clock {
			clock = c
		}
		sh.mu.Unlock()
		if aerr != nil {
			return starts, clock, aerr
		}
		if jerr != nil {
			return starts, clock, jerr
		}
	}
	// Shards were drained in ascending order, so a stable sort by time
	// yields the (time, shard, pass order) merge order.
	sort.SliceStable(starts, func(i, j int) bool { return starts[i].Time < starts[j].Time })
	return starts, clock, nil
}

// SetPolicy hot-swaps the queue policy on every shard, in shard order,
// journaling the swap per shard by its descriptor (name, expr) — the
// journal records a policy the way a client named it, and recovery
// resolves it back through DurableConfig.ResolvePolicy.
func (b *Batch) SetPolicy(p sched.Policy, name, expr string) error {
	f := b.f
	f.ctl.Lock()
	defer f.ctl.Unlock()
	rec := durable.Record{Op: durable.OpPolicy, Name: name, Expr: expr}
	return f.fanOut(b, &rec, func(sh *shard, _ int) error { return sh.setPolicy(p, name, expr) })
}

// fanOut applies one control record to every shard in shard order, each
// under its own lock — op mutates the shard, then the record is
// journaled there into b. It refuses while draining and unless every
// shard is healthy: a control op that lands on a strict subset of
// shards would make every later output depend on which shard failed
// when. Callers hold f.ctl.
func (f *Federation) fanOut(b *Batch, rec *durable.Record, op func(sh *shard, i int) error) error {
	f.mu.Lock()
	if f.draining {
		f.mu.Unlock()
		return ErrDraining
	}
	if h := f.router.Healthy(); h < f.cfg.Shards {
		f.mu.Unlock()
		return fmt.Errorf("fed: refusing %v with %d/%d shards quarantined", rec.Op, f.cfg.Shards-h, f.cfg.Shards)
	}
	f.mu.Unlock()
	for i, sh := range f.shards {
		sh.mu.Lock()
		if sh.storeErr != nil {
			sh.mu.Unlock()
			return &ShardDownError{Shard: i}
		}
		err := op(sh, i)
		if err == nil {
			err = f.journalLocked(b, sh, i, rec)
		}
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// apply executes one scheduling record — submit, complete or advance —
// against shard-owned state, then feeds the adaptive loop: a submit is
// observed, and a round that came due at the new clock runs and applies
// its promotion. Live mutations and journal replay both come through
// here, so replay re-derives every retraining decision instead of
// reading it from disk. The returned starts are the scheduler's scratch.
// Called with sh.mu held.
func (sh *shard) apply(rec *durable.Record) ([]online.Start, error) {
	var (
		starts []online.Start
		err    error
	)
	switch rec.Op {
	case durable.OpSubmit:
		starts, err = sh.s.SubmitAt(rec.Now, rec.Job)
		if err == nil && sh.ad != nil {
			job := rec.Job
			if job.Submit == 0 {
				job.Submit = sh.s.Clock() // the stamp SubmitAt applied
			}
			sh.ad.Observe(job)
		}
	case durable.OpComplete:
		starts, err = sh.s.CompleteAt(rec.Now, rec.ID)
	case durable.OpAdvance:
		t := rec.Now
		if c := sh.s.Clock(); t < c {
			t = c // the logical clock never moves backward
		}
		starts, err = sh.s.AdvanceTo(t)
	default:
		return nil, fmt.Errorf("fed: %v is not a scheduling record", rec.Op)
	}
	if err != nil {
		return nil, err
	}
	sh.adaptStep()
	return starts, nil
}

// setPolicy swaps the shard's policy and tracks its descriptor, which
// snapshots carry. Called with sh.mu held.
func (sh *shard) setPolicy(p sched.Policy, name, expr string) error {
	if err := sh.s.SetPolicy(p); err != nil {
		return err
	}
	sh.policyName, sh.policyExpr = name, expr
	return nil
}

// Clock returns the maximum shard clock.
func (f *Federation) Clock() float64 {
	var c float64
	for _, sh := range f.shards {
		sh.mu.Lock()
		if n := sh.s.Clock(); n > c {
			c = n
		}
		sh.mu.Unlock()
	}
	return c
}

// Status is the merged federation view plus the per-shard snapshots.
type Status struct {
	Now       float64 // maximum shard clock
	Shards    int     //
	Cores     int     // total federated cores
	FreeCores int     //
	Queued    int     //
	Running   int     //
	Submitted int     //
	Completed int     //
	Stolen    int     // placements diverted by the load fallback
	// Policy is the policy every shard runs, or "mixed" once per-shard
	// adaptive loops have promoted different ones (PerShard says which).
	Policy string
	// Violation is the first invariant violation a shard recorded under
	// Options.Check (lowest shard first), or "".
	Violation string
	PerShard  []online.Status // indexed by shard
}

// Status snapshots every shard and merges, in shard order.
func (f *Federation) Status() Status {
	st := Status{Shards: f.cfg.Shards, Stolen: f.Stolen()}
	st.PerShard = make([]online.Status, f.cfg.Shards)
	for i, sh := range f.shards {
		sh.mu.Lock()
		s := sh.s.Status()
		verr := sh.s.Err()
		sh.mu.Unlock()
		st.PerShard[i] = s
		if verr != nil && st.Violation == "" {
			st.Violation = verr.Error()
			if f.cfg.Shards > 1 {
				st.Violation = fmt.Sprintf("shard %d: %s", i, st.Violation)
			}
		}
		if s.Now > st.Now {
			st.Now = s.Now
		}
		st.Cores += s.Cores
		st.FreeCores += s.FreeCores
		st.Queued += s.Queued
		st.Running += s.Running
		st.Submitted += s.Submitted
		st.Completed += s.Completed
		switch {
		case i == 0:
			st.Policy = s.Policy
		case s.Policy != st.PerShard[0].Policy:
			st.Policy = "mixed"
		}
	}
	return st
}

// Metrics merges per-shard metrics in shard order: counts sum, means
// weight by each shard's completed jobs, maxima take the max, the queue
// high-water takes the max (shards queue independently), and
// utilization averages over shards (equal-size machines).
func (f *Federation) Metrics() (online.Metrics, []online.Metrics) {
	per := make([]online.Metrics, f.cfg.Shards)
	for i, sh := range f.shards {
		sh.mu.Lock()
		per[i] = sh.s.Metrics()
		sh.mu.Unlock()
	}
	return MergeMetrics(per), per
}

// MergeMetrics folds per-shard metrics into one aggregate, in slice
// order (deterministic for a deterministic input order).
func MergeMetrics(per []online.Metrics) online.Metrics {
	var m online.Metrics
	var sumB, sumW, sumU float64
	for _, p := range per {
		m.Submitted += p.Submitted
		m.Completed += p.Completed
		m.Backfilled += p.Backfilled
		if p.MaxQueueLen > m.MaxQueueLen {
			m.MaxQueueLen = p.MaxQueueLen
		}
		if p.MaxBSLD > m.MaxBSLD {
			m.MaxBSLD = p.MaxBSLD
		}
		if p.MaxWait > m.MaxWait {
			m.MaxWait = p.MaxWait
		}
		sumB += p.AveBsld * float64(p.Completed)
		sumW += p.MeanWait * float64(p.Completed)
		sumU += p.Utilization
	}
	if m.Completed > 0 {
		m.AveBsld = sumB / float64(m.Completed)
		m.MeanWait = sumW / float64(m.Completed)
	}
	if len(per) > 0 {
		m.Utilization = sumU / float64(len(per))
	}
	return m
}

// MergeSinks folds every shard's counters and histograms, journal
// included, into m (traces excluded — see MergedTrace) and returns the
// shards' summed trace accounting: events recorded, and events
// overwritten before export. ok is false when telemetry is off.
func (f *Federation) MergeSinks(m *telemetry.Sink) (traced, dropped uint64, ok bool) {
	if f.cfg.TraceBuf <= 0 {
		return 0, 0, false
	}
	for _, sh := range f.shards {
		sh.mu.Lock()
		m.Merge(sh.tel)
		m.Merge(sh.jtel)
		traced += sh.tel.Trace.Total()
		dropped += sh.tel.Trace.Dropped()
		sh.mu.Unlock()
	}
	return traced, dropped, true
}

// ShardSink returns shard i's sink (nil when telemetry is off). The
// caller must not mutate it; reads of a live federation race unless the
// shard is quiesced.
func (f *Federation) ShardSink(i int) *telemetry.Sink { return f.shards[i].tel }

// ShardEvent is a trace event tagged with the shard that recorded it.
type ShardEvent struct {
	Shard int
	Event telemetry.Event
}

// MergedTrace exports the federation's decision trace: per-shard rings
// sampled by sequence (sample > 1 keeps seq % sample == 0, per shard),
// merged into the total order (clock, shard, seq), with limit > 0
// capping to the most recent events AFTER sampling and merging — the
// same sample-then-limit order the single-scheduler /v1/trace endpoint
// documents.
func (f *Federation) MergedTrace(sample, limit int) []ShardEvent {
	if f.cfg.TraceBuf <= 0 {
		return nil
	}
	var out []ShardEvent
	for i, sh := range f.shards {
		sh.mu.Lock()
		evs := sh.tel.Trace.Events(sample, 0)
		sh.mu.Unlock()
		for _, e := range evs {
			out = append(out, ShardEvent{Shard: i, Event: e})
		}
	}
	out = sortShardEvents(out)
	if limit > 0 && len(out) > limit {
		out = out[len(out)-limit:]
	}
	return out
}

// sortShardEvents establishes the canonical merged order: (clock,
// shard, seq). The input must hold each shard's events contiguously in
// seq order with shards ascending — which every producer in this
// package does — so a stable sort by time alone completes the order.
func sortShardEvents(evs []ShardEvent) []ShardEvent {
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Event.Time < evs[j].Event.Time })
	return evs
}
