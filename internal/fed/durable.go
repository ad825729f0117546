// Per-shard durability: each shard owns one WAL+snapshot store under
// <data-dir>/shard-NNNN/, journals its own mutations under its shard
// lock, and recovers independently — so federation recovery is N
// single-engine recoveries plus a deterministic router rebuild, and one
// bad disk latches one shard instead of killing the daemon.
//
// # Journal-order contract
//
// A shard's durable state reflects its journal order: the order records
// reached the shard lock, which for the deterministic request streams
// the oracles replay is exactly the placement order. The router's
// per-shard fluid clock and steal attribution are therefore mirrored
// shard-locally at journal time (shard.vt, shard.stolenOnto) rather
// than read from the router at checkpoint time — a checkpoint must not
// capture a placement whose record has not been journaled yet.
// Rejected submits are not journaled and leave no durable routing
// residue.
//
// # Commit point
//
// A mutation only buffers its record (journalLocked); the request's
// Batch.Commit syncs each shard it touched once, under that shard's
// lock, when the shard's unsynced count has reached SyncEvery. Every
// request commits before its reply is written — a binary frame once
// for all its records, every other mutation once per call — so at
// -fsync 1 no reply, OK or Err, precedes the sync of the records it
// applied, and -fsync N risks at most N-1 acknowledged records per
// shard. A concurrent reader can see a frame's records in memory before
// that frame's sync: reads are not a durable cut.
//
// # Quarantine
//
// The first append/sync/checkpoint failure on a shard latches the store
// (durable.Store latches itself) and quarantines the shard in the
// router: no new placements, and mutations targeting it fail with
// ShardDownError — retryable, the deploy may come back after a restart
// — while every healthy shard keeps serving its own substream
// untouched. The request that trips the latch is the exception: its
// mutations were applied in memory but not made durable, which
// ShardBrokenError reports as a fatal (non-retryable) condition — a 500
// at the daemon. That holds for a failed append and for a failed sync
// at the commit point alike.

package fed

import (
	"errors"
	"fmt"
	"math/bits"
	"path/filepath"
	"strings"

	"github.com/hpcsched/gensched/internal/adaptive"
	"github.com/hpcsched/gensched/internal/durable"
	"github.com/hpcsched/gensched/internal/online"
	"github.com/hpcsched/gensched/internal/sched"
	"github.com/hpcsched/gensched/internal/telemetry"
	"github.com/hpcsched/gensched/internal/workload"
)

// ErrDraining is returned for mutations after Drain began. It maps to
// 503 + Retry-After at the HTTP layer and a retryable Err frame on the
// binary protocol.
var ErrDraining = errors.New("fed: draining, refusing mutations")

// ShardBrokenError is the request that tripped a shard's latch: it was
// applied in memory but its records did not reach the disk, at append
// or at the commit's sync. Fatal — retrying cannot make the lost
// records durable.
type ShardBrokenError struct {
	Shard int
	Err   error
}

func (e *ShardBrokenError) Error() string {
	return fmt.Sprintf("fed: shard %d journal failed (mutation applied but not durable): %v", e.Shard, e.Err)
}

func (e *ShardBrokenError) Unwrap() error { return e.Err }

// DurableConfig wires per-shard stores under Dir.
type DurableConfig struct {
	// Dir is the federation data directory; each shard stores under
	// Dir/shard-NNNN/. Empty means no durability.
	Dir string
	// SyncEvery and CkptEvery carry the daemon's -fsync and
	// -checkpoint-interval semantics, per shard (CkptEvery in logical
	// seconds of the shard's own clock; 0 checkpoints only on drain).
	SyncEvery int
	CkptEvery float64
	// PolicyName/PolicyExpr describe cfg.Opt.Policy for genesis records
	// and snapshots.
	PolicyName string
	PolicyExpr string
	// ResolvePolicy turns a journaled policy descriptor back into a
	// policy during recovery. Required.
	ResolvePolicy func(name, expr string) (sched.Policy, error)
	// FS, when non-nil, supplies each shard's filesystem — the fault
	// injection seam. Nil means the real filesystem for every shard.
	FS func(shard int) durable.FS
}

// ShardHealth is one shard's durability and degradation status: the
// journal's position and health now, and how the current process came
// back from disk (recovery provenance, static after Open).
type ShardHealth struct {
	Durable        bool
	Quarantined    bool
	StoreErr       string
	Seq            uint64  // next journal sequence
	LastCheckpoint float64 // shard clock at the last checkpoint (or recovery)
	Recovered      bool
	FromSnapshot   bool
	SnapshotSeq    uint64  // journal sequence the recovery snapshot covered
	SnapshotClock  float64 // shard clock restored from it, before replay
	Replayed       int
	Segments       int
}

// shardDirName is the canonical per-shard directory name.
func shardDirName(i int) string { return fmt.Sprintf("shard-%04d", i) }

// shardRecovery carries one shard's recovery result from its supervisor
// goroutine to the sequential router rebuild.
type shardRecovery struct {
	records    []durable.Record // replayed records (post-snapshot)
	snapActive []int            // active job IDs restored from the snapshot
	snapVT     float64
	snapStolen int
}

// shardInit is the genesis InitState every shard journals.
func shardInit(cfg Config, dur *DurableConfig) durable.InitState {
	return durable.InitState{
		Cores:        cfg.ShardCores,
		Backfill:     int(cfg.Opt.Backfill),
		UseEstimates: cfg.Opt.UseEstimates,
		Tau:          cfg.Opt.Tau,
		PolicyName:   dur.PolicyName,
		PolicyExpr:   dur.PolicyExpr,
	}
}

// checkShardInit refuses to bind a shard journal recorded against one
// machine shape to different flags. The policy descriptor is exempt:
// the journal's history governs the active policy.
func checkShardInit(flags, recorded durable.InitState) error {
	type field struct {
		name string
		flag any
		rec  any
	}
	for _, f := range []field{
		{"cores", flags.Cores, recorded.Cores},
		{"backfill", flags.Backfill, recorded.Backfill},
		{"estimates", flags.UseEstimates, recorded.UseEstimates},
		{"tau", flags.Tau, recorded.Tau},
	} {
		if f.flag != f.rec {
			return fmt.Errorf("shard recorded with %s=%v, flags say %v", f.name, f.rec, f.flag)
		}
	}
	return nil
}

// Open builds a durable federation: refuse a pre-federation layout,
// recover every shard (concurrently, bounded by cfg.Workers), then
// rebuild the router deterministically in shard order. With dur.Dir
// empty it is equivalent to New.
func Open(cfg Config, dur DurableConfig) (*Federation, error) {
	if dur.Dir == "" {
		return New(cfg)
	}
	if dur.ResolvePolicy == nil {
		return nil, fmt.Errorf("fed: durable federation needs a policy resolver")
	}
	if dur.SyncEvery < 1 {
		dur.SyncEvery = 1
	}
	if err := refuseLegacyLayout(dur.Dir); err != nil {
		return nil, err
	}
	router, err := NewRouter(cfg.Shards, cfg.ShardCores, cfg.Seed, cfg.Opt.UseEstimates, cfg.StealFactor)
	if err != nil {
		return nil, err
	}
	f := &Federation{cfg: cfg, router: router, shards: make([]*shard, cfg.Shards), dur: &dur}
	for i := range f.shards {
		f.shards[i] = &shard{}
	}
	recovs := make([]*shardRecovery, cfg.Shards)
	if err := runShards(cfg.Workers, cfg.Shards, func(i int) error {
		r, err := f.recoverShard(i)
		if err != nil {
			return fmt.Errorf("fed: shard %d: %w", i, err)
		}
		recovs[i] = r
		return nil
	}); err != nil {
		f.closeOpenedStores()
		return nil, err
	}
	// Router rebuild, sequential in shard order: snapshot state first,
	// then replayed records re-derive placements, diversions and the
	// fluid clock exactly as the original Place calls did.
	for i, r := range recovs {
		router.RestoreShard(i, r.snapVT, r.snapStolen)
		for _, id := range r.snapActive {
			if err := router.AdoptActive(id, i); err != nil {
				f.closeOpenedStores()
				return nil, fmt.Errorf("fed: shard %d snapshot: %w", i, err)
			}
		}
		for k := range r.records {
			rec := &r.records[k]
			switch rec.Op {
			case durable.OpSubmit:
				if err := router.Adopt(rec.Now, rec.Job, i); err != nil {
					f.closeOpenedStores()
					return nil, fmt.Errorf("fed: shard %d replay: %w", i, err)
				}
			case durable.OpComplete:
				router.Release(rec.ID)
			}
		}
		sh := f.shards[i]
		if router.VT(i) != sh.vt || router.StolenOnto(i) != sh.stolenOnto {
			f.closeOpenedStores()
			return nil, fmt.Errorf("fed: shard %d routing state diverged on recovery (vt %v vs %v, stolen %d vs %d)",
				i, router.VT(i), sh.vt, router.StolenOnto(i), sh.stolenOnto)
		}
	}
	return f, nil
}

// closeOpenedStores abandons stores opened by a failed Open. Best
// effort: the boot is already failing with a better error.
func (f *Federation) closeOpenedStores() {
	for _, sh := range f.shards {
		if sh != nil && sh.store != nil {
			_ = sh.store.Close() // cleanup; the boot error is already being reported
		}
	}
}

// recoverShard opens shard i's store and rebuilds its scheduler:
// genesis for a fresh directory, snapshot restore + bounded replay
// otherwise. Runs on the shard's supervisor goroutine; it touches only
// shard-owned state plus read-only router lookups (the ring is
// immutable after construction).
func (f *Federation) recoverShard(i int) (*shardRecovery, error) {
	dur := f.dur
	opt := durable.Options{SyncEvery: dur.SyncEvery}
	if dur.FS != nil {
		opt.FS = dur.FS(i)
	}
	store, rec, err := durable.Open(filepath.Join(dur.Dir, shardDirName(i)), opt)
	if err != nil {
		return nil, err
	}
	sh := f.shards[i]
	out, err := f.recoverShardFrom(i, sh, store, rec)
	if err != nil {
		_ = store.Close() // cleanup; the recovery error is already being reported
		return nil, err
	}
	return out, nil
}

func (f *Federation) recoverShardFrom(i int, sh *shard, store *durable.Store, rec *durable.Recovered) (*shardRecovery, error) {
	cfg, dur := f.cfg, f.dur
	flags := shardInit(cfg, dur)
	out := &shardRecovery{}

	if rec.Snapshot == nil && len(rec.Records) == 0 {
		// Fresh shard: genesis record, then an empty scheduler.
		s, err := online.New(cfg.ShardCores, cfg.Opt)
		if err != nil {
			return nil, err
		}
		sh.initShard(f, s, flags, dur.PolicyName, dur.PolicyExpr)
		sh.store = store
		sh.health.Segments = rec.Segments
		if err := store.Buffer(&durable.Record{Op: durable.OpInit, Init: &flags}); err != nil {
			return nil, err
		}
		if err := store.Sync(); err != nil {
			return nil, err
		}
		store.SetTelemetry(sh.jtel)
		return out, nil
	}

	records := rec.Records
	var recInit durable.InitState
	var s *online.Scheduler
	polName, polExpr := dur.PolicyName, dur.PolicyExpr
	if snap := rec.Snapshot; snap != nil {
		if snap.Fed.Shard != i || snap.Fed.Shards != cfg.Shards || snap.Fed.Seed != cfg.Seed {
			return nil, fmt.Errorf("snapshot belongs to shard %d of a %d-shard federation (seed %d), not shard %d of %d (seed %d)",
				snap.Fed.Shard, snap.Fed.Shards, snap.Fed.Seed, i, cfg.Shards, cfg.Seed)
		}
		out.snapVT, out.snapStolen = snap.Fed.VT, snap.Fed.StolenOnto
		recInit = snap.Init
		polName, polExpr = snap.PolicyName, snap.PolicyExpr
		p, err := dur.ResolvePolicy(polName, polExpr)
		if err != nil {
			return nil, fmt.Errorf("snapshot policy: %w", err)
		}
		opt := cfg.Opt
		opt.Policy = p
		s, err = online.Restore(recInit.Cores, opt, &snap.Sched)
		if err != nil {
			return nil, err
		}
		for _, a := range snap.Sched.Active {
			out.snapActive = append(out.snapActive, a.ID)
		}
		sh.health.FromSnapshot = true
		sh.health.SnapshotSeq = snap.Seq
		sh.health.SnapshotClock = s.Clock()
	} else {
		if records[0].Op != durable.OpInit {
			return nil, fmt.Errorf("journal does not begin with an init record")
		}
		recInit = *records[0].Init
		records = records[1:]
		polName, polExpr = recInit.PolicyName, recInit.PolicyExpr
		p, err := dur.ResolvePolicy(polName, polExpr)
		if err != nil {
			return nil, fmt.Errorf("journal init policy: %w", err)
		}
		opt := cfg.Opt
		opt.Policy = p
		s, err = online.New(recInit.Cores, opt)
		if err != nil {
			return nil, err
		}
	}
	if err := checkShardInit(flags, recInit); err != nil {
		return nil, err
	}
	sh.initShard(f, s, recInit, polName, polExpr)
	if snap := rec.Snapshot; snap != nil && snap.Adapt != nil {
		ac := snap.Adapt.Config
		ctrl, err := adaptive.Restore(f.adaptiveConfig(sh, i, &ac), &snap.Adapt.State)
		if err != nil {
			return nil, fmt.Errorf("snapshot adaptive loop: %w", err)
		}
		sh.ad, sh.adCfg = ctrl, &ac
	}
	sh.vt, sh.stolenOnto = out.snapVT, out.snapStolen
	sh.store = store
	sh.health.Recovered = true
	sh.health.Replayed = len(records)
	sh.health.Segments = rec.Segments

	// Bounded replay: the same apply path live mutations take, against
	// shard-owned state, re-deriving trace events and the routing
	// mirrors record by record.
	for k := range records {
		r := &records[k]
		if err := sh.applyRecord(f, i, r); err != nil {
			return nil, fmt.Errorf("journal replay: record %d (%v): %w", k, r.Op, err)
		}
	}
	sh.lastCkpt = s.Clock()
	store.SetTelemetry(sh.jtel)
	out.records = records
	return out, nil
}

// initShard wires a shard's scheduler, telemetry sinks and descriptors.
// The scheduler's sink attaches before any replay so a recovered shard's
// trace ring is re-derived record by record, exactly as the live shard
// built it. The journal's counters go to a separate ring-less sink that
// the caller attaches after recovery: they count this process's appends
// and syncs, and keep WAL events out of the re-derivable trace.
func (sh *shard) initShard(f *Federation, s *online.Scheduler, init durable.InitState, polName, polExpr string) {
	sh.s = s
	sh.init = init
	sh.policyName, sh.policyExpr = polName, polExpr
	if f.cfg.TraceBuf > 0 {
		sh.tel = telemetry.NewSink(f.cfg.TraceBuf)
		s.SetTelemetry(sh.tel)
		sh.jtel = &telemetry.Sink{}
	}
}

// applyRecord replays one journaled operation against shard-owned
// state through the live mutation path (minus the journaling itself),
// plus the routing mirrors the live path advances at journal time.
func (sh *shard) applyRecord(f *Federation, i int, rec *durable.Record) error {
	switch rec.Op {
	case durable.OpSubmit, durable.OpComplete, durable.OpAdvance:
		if _, err := sh.apply(rec); err != nil {
			return err
		}
		if rec.Op == durable.OpSubmit {
			sh.noteSubmitMirror(f, i, rec.Now, rec.Job)
		}
		return nil
	case durable.OpPolicy:
		p, err := f.dur.ResolvePolicy(rec.Name, rec.Expr)
		if err != nil {
			return err
		}
		return sh.setPolicy(p, rec.Name, rec.Expr)
	case durable.OpAdaptStart:
		return f.startShardAdapt(sh, i, rec.Adapt)
	case durable.OpAdaptStop:
		sh.stopAdapt()
		return nil
	case durable.OpInit:
		return fmt.Errorf("unexpected init record mid-journal")
	}
	return fmt.Errorf("unexpected journal op %v", rec.Op)
}

// noteSubmitMirror advances the shard-local routing mirrors for one
// journaled placement, in journal order. Primary and Occupancy are pure
// lookups on router construction state (the ring is immutable), safe
// under sh.mu without the federation lock. The mirrors — not the live
// router — feed the shard's snapshot, so a checkpoint never captures a
// placement whose record has not been journaled.
func (sh *shard) noteSubmitMirror(f *Federation, i int, now float64, j workload.Job) {
	if i != f.router.Primary(j.ID) {
		sh.stolenOnto++
	}
	if sh.vt < now {
		sh.vt = now
	}
	sh.vt += f.router.Occupancy(j)
}

// journalLocked buffers one applied record in the shard's journal,
// marks the shard pending in b, and runs the checkpoint cadence. The
// record is not synced here: b.Commit syncs each pending shard once, so
// a request's records share one flush+fsync per shard. Called with
// sh.mu held. A failure latches the store, quarantines the shard and
// returns *ShardBrokenError.
func (f *Federation) journalLocked(b *Batch, sh *shard, i int, rec *durable.Record) error {
	if sh.store == nil {
		return nil
	}
	if err := sh.store.Buffer(rec); err != nil {
		f.latchShardLocked(sh, i, err)
		return &ShardBrokenError{Shard: i, Err: err}
	}
	b.mark(i)
	if rec.Op == durable.OpSubmit {
		sh.noteSubmitMirror(f, i, rec.Now, rec.Job)
	}
	if f.dur != nil && f.dur.CkptEvery > 0 && sh.s.Clock()-sh.lastCkpt >= f.dur.CkptEvery {
		f.checkpointShardLocked(sh, i)
	}
	return nil
}

// mark adds shard i to the batch's pending set.
func (b *Batch) mark(i int) {
	w := i / 64
	for len(b.pending) <= w {
		b.pending = append(b.pending, 0)
	}
	b.pending[w] |= 1 << uint(i%64)
}

// Commit is the batch's durability point. It syncs every pending shard
// once, in shard order and under that shard's lock, whenever the
// shard's unsynced records have reached SyncEvery; so once it returns,
// at most SyncEvery-1 acknowledged records per shard are unsynced, and
// none at -fsync 1. A sync failure latches and quarantines its shard
// alone: the other pending shards still commit. Commit empties the
// batch, and on a federation without a data dir, where nothing is ever
// pending, it returns at once.
//
// applyErr is whatever stopped the batch early. Commit returns it unless
// the commit itself failed: then records applied before applyErr may
// not be durable, and the lowest failing shard's *ShardBrokenError
// takes its place.
func (b *Batch) Commit(applyErr error) error {
	var err error
	for w, word := range b.pending {
		for ; word != 0; word &= word - 1 {
			if cerr := b.f.commitShard(64*w + bits.TrailingZeros64(word)); cerr != nil && err == nil {
				err = cerr
			}
		}
		b.pending[w] = 0
	}
	if err != nil {
		return err
	}
	return applyErr
}

// commitShard commits shard i's journal (see durable.Store.Commit). It
// fails only when records the shard buffered cannot be made durable;
// then the shard latches, if it has not already.
func (f *Federation) commitShard(i int) error {
	sh := f.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := sh.store.Commit(); err != nil {
		f.latchShardLocked(sh, i, err)
		return &ShardBrokenError{Shard: i, Err: err}
	}
	return nil
}

// latchShardLocked records a shard's first store failure and
// quarantines it in the router. Called with sh.mu held; takes f.mu —
// sh.mu may nest f.mu inside it, never the reverse (every router access
// on the request path releases f.mu before touching a shard).
func (f *Federation) latchShardLocked(sh *shard, i int, err error) {
	if sh.storeErr == nil {
		sh.storeErr = err
	}
	f.mu.Lock()
	f.router.Quarantine(i)
	f.mu.Unlock()
}

// shardSnapshotLocked builds one shard's checkpoint image from
// shard-owned state (scheduler, descriptors, routing mirrors). Called
// with sh.mu held; Seq is left for the store to stamp.
func (f *Federation) shardSnapshotLocked(sh *shard, i int) (*durable.Snapshot, error) {
	snap := &durable.Snapshot{
		Init:       sh.init,
		PolicyName: sh.policyName,
		PolicyExpr: sh.policyExpr,
		Fed: durable.FedState{
			Shard:      i,
			Shards:     f.cfg.Shards,
			Seed:       f.cfg.Seed,
			StolenOnto: sh.stolenOnto,
			VT:         sh.vt,
		},
	}
	if err := sh.s.ExportState(&snap.Sched); err != nil {
		return nil, err
	}
	if sh.ad != nil {
		snap.Adapt = &durable.AdaptState{Config: *sh.adCfg, State: *sh.ad.ExportState()}
	}
	return snap, nil
}

// ShardSnapshot builds shard i's checkpoint image without writing it,
// Seq left zero — the crash suite's canonical byte oracle: two runs are
// in the same state iff their shard snapshots encode identically.
func (f *Federation) ShardSnapshot(i int) (*durable.Snapshot, error) {
	sh := f.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return f.shardSnapshotLocked(sh, i)
}

// checkpointShardLocked snapshots one shard and rotates its journal.
// Failures latch + quarantine rather than failing the request that
// tripped the cadence.
func (f *Federation) checkpointShardLocked(sh *shard, i int) {
	snap, err := f.shardSnapshotLocked(sh, i)
	if err == nil {
		err = sh.store.Checkpoint(snap)
	}
	if err != nil {
		f.latchShardLocked(sh, i, err)
		return
	}
	sh.lastCkpt = sh.s.Clock()
}

// Drain refuses further mutations, then checkpoints and closes every
// shard store (concurrently, bounded by Workers; lowest-shard error
// wins). Idempotent: later calls re-report the first outcome.
func (f *Federation) Drain() error {
	f.mu.Lock()
	if f.draining {
		err := f.drainErr
		f.mu.Unlock()
		return err
	}
	f.draining = true
	f.mu.Unlock()
	err := runShards(f.cfg.Workers, f.cfg.Shards, func(i int) error {
		return f.closeShardStore(i)
	})
	f.mu.Lock()
	f.drainErr = err
	f.mu.Unlock()
	return err
}

// closeShardStore writes shard i's final checkpoint and closes its
// journal. Taking sh.mu waits out the final in-flight mutation; the
// draining flag (already set) refuses later ones.
func (f *Federation) closeShardStore(i int) error {
	sh := f.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.store == nil || sh.storeClosed {
		return sh.storeErr
	}
	sh.storeClosed = true
	if sh.storeErr == nil {
		f.checkpointShardLocked(sh, i) // latches on failure
	}
	if cerr := sh.store.Close(); sh.storeErr == nil && cerr != nil {
		sh.storeErr = cerr
	}
	if sh.storeErr != nil {
		return fmt.Errorf("fed: shard %d: %w", i, sh.storeErr)
	}
	return nil
}

// Durable reports whether the federation journals to disk.
func (f *Federation) Durable() bool { return f.dur != nil }

// Draining reports whether Drain has begun.
func (f *Federation) Draining() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.draining
}

// Health reports every shard's durability/degradation status, in shard
// order.
func (f *Federation) Health() []ShardHealth {
	out := make([]ShardHealth, f.cfg.Shards)
	for i, sh := range f.shards {
		sh.mu.Lock()
		h := sh.health
		h.Durable = sh.store != nil
		if sh.store != nil {
			h.Seq = sh.store.Seq()
			h.LastCheckpoint = sh.lastCkpt
		}
		if sh.storeErr != nil {
			h.StoreErr = sh.storeErr.Error()
		}
		sh.mu.Unlock()
		f.mu.Lock()
		h.Quarantined = f.router.Quarantined(i)
		f.mu.Unlock()
		out[i] = h
	}
	return out
}

// refuseLegacyLayout fails on a data directory written before shards
// had directories of their own: a snapshot or WAL segment at the top
// level, which no shard reads. Recovering around it would silently
// drop that journal.
func refuseLegacyLayout(dir string) error {
	entries, err := durable.OS().ReadDir(dir)
	if err != nil {
		return nil // a directory that does not exist yet holds no journal
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && (name == "snapshot" || strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log")) {
			return fmt.Errorf("fed: %s holds a pre-federation journal file %q; this build reads only %s/shard-NNNN/, so move the old journal aside", dir, name, dir)
		}
	}
	return nil
}
