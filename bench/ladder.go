package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"github.com/hpcsched/gensched/internal/durable"
	"github.com/hpcsched/gensched/internal/fed"
	"github.com/hpcsched/gensched/internal/mlfit"
	"github.com/hpcsched/gensched/internal/online"
	"github.com/hpcsched/gensched/internal/sched"
	"github.com/hpcsched/gensched/internal/telemetry"
	"github.com/hpcsched/gensched/internal/trainer"
	"github.com/hpcsched/gensched/internal/workload"
)

// The in-process span ladder: the first tenth of a workload's stream is
// pushed through the layers' public functions in the daemon's call
// order, one span per call. The daemon itself stays a black box — the
// spans come from this file, around calls into internal/*.
//
// The top-level apply call (fed.Federation.Submit/Complete behind a
// sharded daemon, online.Scheduler.SubmitAt/CompleteAt behind a single
// engine) cannot be opened from outside, so its children are a
// re-execution of the same record on standalone copies of the inner
// layers — router, per-shard scheduler split into enqueue and pass,
// journal split into encode, append and sync — recorded right after the
// call and parented to it. The parent's self time is then what the layer
// adds on top of the layers below it: locks, clamping, copying starts.
// After the last op the copies must be in the state of the real thing,
// which checks that the re-execution is faithful.

// telemetryBuf is schedd's -trace-buf default: the daemon runs with
// telemetry on, so the ladder's engines carry a sink of the same size.
const telemetryBuf = 4096

// traceFileSpans caps the spans written to the Chrome trace file; all of
// them count towards the metrics.
const traceFileSpans = 50000

// inner is the standalone copy of the layers below the apply call.
type inner struct {
	dir    string
	router *fed.Router // nil behind a single engine
	scheds []*online.Scheduler
	stores []*durable.Store // nil without a journal
	enc    []byte
}

func newInner(w spec, cfg fed.Config, dir string) (*inner, error) {
	in := &inner{dir: dir}
	var err error
	if w.shards > 1 {
		if in.router, err = fed.NewRouter(cfg.Shards, cfg.ShardCores, cfg.Seed, cfg.Opt.UseEstimates, cfg.StealFactor); err != nil {
			return nil, err
		}
	}
	for i := 0; i < w.shards; i++ {
		s, err := online.New(cfg.ShardCores, cfg.Opt)
		if err != nil {
			return nil, err
		}
		s.SetTelemetry(telemetry.NewSink(telemetryBuf))
		in.scheds = append(in.scheds, s)
		if w.durable {
			// Appends never sync on their own here, so append and sync
			// are separate spans.
			st, _, err := durable.Open(filepath.Join(dir, fmt.Sprintf("inner-%d", i)), durable.Options{SyncEvery: 1 << 30})
			if err != nil {
				return nil, err
			}
			st.SetTelemetry(s.Telemetry())
			in.stores = append(in.stores, st)
		}
	}
	return in, nil
}

func (in *inner) close() {
	for _, st := range in.stores {
		_ = st.Close() // benchmark scratch; nothing depends on it
	}
}

// apply re-executes one record on the copies, a span per layer call.
func (in *inner) apply(rec *recorder, parent, req int, r *durable.Record) error {
	shard := 0
	submit := r.Op == durable.OpSubmit
	if in.router != nil {
		if submit {
			sp := rec.begin("fed_router.place", parent, req)
			s, err := in.router.Place(r.Now, r.Job)
			rec.end(sp)
			if err != nil {
				return err
			}
			shard = s
		} else {
			sp := rec.begin("fed_router.locate_release", parent, req)
			s, ok := in.router.Locate(r.ID)
			in.router.Release(r.ID)
			rec.end(sp)
			if !ok {
				return fmt.Errorf("ladder: job %d is not placed", r.ID)
			}
			shard = s
		}
	}
	s := in.scheds[shard]
	now := r.Now
	if c := s.Clock(); now < c {
		now = c
	}
	sp := rec.begin("online.enqueue", parent, req)
	_, err := s.AdvanceTo(now)
	if err == nil {
		if submit {
			err = s.Submit(r.Job)
		} else {
			err = s.Complete(r.ID)
		}
	}
	rec.end(sp)
	if err != nil {
		return err
	}
	sp = rec.begin("schedcore.pass", parent, req)
	s.Flush()
	rec.end(sp)
	if in.stores != nil {
		sp = rec.begin("durable.encode", parent, req)
		in.enc, err = durable.AppendRecord(in.enc[:0], r)
		rec.end(sp)
		if err != nil {
			return err
		}
		// Store.Append encodes again, then checksums and buffers.
		sp = rec.begin("durable.append", parent, req)
		err = in.stores[shard].Append(r)
		rec.end(sp)
		if err != nil {
			return err
		}
		sp = rec.begin("durable.sync", parent, req)
		err = in.stores[shard].Sync()
		rec.end(sp)
		if err != nil {
			return err
		}
	}
	return nil
}

// ioCount is what one shard's journal asked of the filesystem.
type ioCount struct{ writes, bytes, syncs int }

// countingFS is the real filesystem with the journal's write and fsync
// calls counted — the store's fault-injection seam used as a probe. The
// federated daemon does not export its journal counters, so this is
// where durable.syncs_per_event and durable.wal_bytes_per_event come
// from: the same fed.Federation code path, counted in-process.
type countingFS struct {
	durable.FS
	c *ioCount
}

func (f countingFS) OpenFile(path string, flag int, perm fs.FileMode) (durable.File, error) {
	file, err := f.FS.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return countingFile{file, f.c}, nil
}

type countingFile struct {
	durable.File
	c *ioCount
}

func (f countingFile) Write(p []byte) (int, error) {
	f.c.writes++
	f.c.bytes += len(p)
	return f.File.Write(p)
}

func (f countingFile) Sync() error {
	f.c.syncs++
	return f.File.Sync()
}

// outer is the real apply call the daemon makes.
type outer struct {
	fd    *fed.Federation   // sharded daemon
	s     *online.Scheduler // single engine
	buf   []online.Start
	names [2]string // span names for submit, complete
	io    []ioCount // per shard, journaled federation only
	io0   ioCount   // the journals' own set-up (genesis records), taken out
}

// journalIO sums the shards' counters, net of what opening the journals
// cost.
func (o *outer) journalIO() ioCount {
	var t ioCount
	for _, c := range o.io {
		t.writes += c.writes
		t.bytes += c.bytes
		t.syncs += c.syncs
	}
	t.writes -= o.io0.writes
	t.bytes -= o.io0.bytes
	t.syncs -= o.io0.syncs
	return t
}

func newOuter(w spec, cfg fed.Config, dir string) (*outer, error) {
	if w.shards == 1 {
		s, err := online.New(cfg.ShardCores, cfg.Opt)
		if err != nil {
			return nil, err
		}
		s.SetTelemetry(telemetry.NewSink(telemetryBuf))
		return &outer{s: s, names: [2]string{"online.submit_at", "online.complete_at"}}, nil
	}
	cfg.TraceBuf = telemetryBuf
	o := &outer{names: [2]string{"fed.submit", "fed.complete"}}
	var dur fed.DurableConfig
	if w.durable {
		o.io = make([]ioCount, w.shards)
		dur = fed.DurableConfig{
			Dir: filepath.Join(dir, "outer"), SyncEvery: 1, PolicyName: w.policy,
			ResolvePolicy: func(name, _ string) (sched.Policy, error) { return sched.ByName(name) },
			FS:            func(shard int) durable.FS { return countingFS{durable.OS(), &o.io[shard]} },
		}
	}
	var err error
	if o.fd, err = fed.Open(cfg, dur); err != nil {
		return nil, err
	}
	o.io0 = o.journalIO()
	return o, nil
}

func (o *outer) apply(rec *recorder, parent, req int, r *durable.Record) (int, []online.Start, float64, error) {
	var (
		err   error
		clock float64
	)
	submit := r.Op == durable.OpSubmit
	name := o.names[1]
	if submit {
		name = o.names[0]
	}
	sp := rec.begin(name, parent, req)
	switch {
	case o.fd != nil && submit:
		_, o.buf, clock, err = o.fd.Submit(r.Now, r.Job, o.buf[:0])
	case o.fd != nil:
		o.buf, clock, err = o.fd.Complete(r.Now, r.ID, o.buf[:0])
	case submit:
		var st []online.Start
		st, err = o.s.SubmitAt(r.Now, r.Job)
		o.buf, clock = append(o.buf[:0], st...), o.s.Clock()
	default:
		var st []online.Start
		st, err = o.s.CompleteAt(r.Now, r.ID)
		o.buf, clock = append(o.buf[:0], st...), o.s.Clock()
	}
	rec.end(sp)
	return sp, o.buf, clock, err
}

func (o *outer) close() {
	if o.fd != nil {
		_ = o.fd.Drain() // benchmark scratch; nothing depends on it
	}
}

func (o *outer) status() online.Status {
	if o.fd == nil {
		return o.s.Status()
	}
	st := o.fd.Status()
	return online.Status{Now: st.Now, Cores: st.Cores, FreeCores: st.FreeCores, Queued: st.Queued,
		Running: st.Running, Submitted: st.Submitted, Completed: st.Completed, Policy: st.Policy}
}

func (in *inner) status() online.Status {
	var out online.Status
	for _, s := range in.scheds {
		st := s.Status()
		if st.Now > out.Now {
			out.Now = st.Now
		}
		out.Cores += st.Cores
		out.FreeCores += st.FreeCores
		out.Queued += st.Queued
		out.Running += st.Running
		out.Submitted += st.Submitted
		out.Completed += st.Completed
		out.Policy = st.Policy
	}
	return out
}

// spanCost measures what recording one span adds: the part that lands
// inside the span's own interval and the part that lands in its parent.
func spanCost() (inside, outside float64) {
	const n = 4096
	r := newRecorder(n)
	t := time.Now()
	for i := 0; i < n; i++ {
		r.end(r.begin("", -1, 0))
	}
	total := float64(time.Since(t).Nanoseconds())
	var in float64
	for _, sp := range r.spans {
		in += float64(sp.dur())
	}
	return in / n, (total - in) / n
}

// ladder is what the span pass measured.
type ladder struct {
	rec       *recorder
	ops       int
	records   int
	submits   int
	completes int
	reqBytes  int
	respBytes int
	stolen    int
	journal   ioCount   // what the real apply path asked of the filesystem
	opNs      []float64 // per op: the daemon-side work the spans explain
	spanNs    float64   // what recording adds inside a span's own interval

	statusUs        float64 // one merged status read on the real apply target
	scoreNsPerEval  float64
	recoverRecsPerS float64
	checkpointMs    float64
	telemetryRatio  float64
	sampleTupleUs   float64
	scoreTupleMs    float64
	fitAllMs        float64
}

// ladderJobs is the span ladder's share of a stream: its first tenth,
// but no fewer than 2000 jobs, so that a short stream's ladder still gets
// past the build-up of its queue.
func ladderJobs(jobs []workload.Job) []workload.Job {
	n := len(jobs) / 10
	if n < 2000 {
		n = 2000
	}
	if n > len(jobs) {
		n = len(jobs)
	}
	return append([]workload.Job(nil), jobs[:n]...)
}

// prefixRecords drives the ladder's jobs through an in-memory twin and
// returns the record sequence the daemon would receive.
func prefixRecords(w spec, jobs []workload.Job) ([]durable.Record, error) {
	cfg, err := w.fedConfig()
	if err != nil {
		return nil, err
	}
	fd, err := fed.New(cfg)
	if err != nil {
		return nil, err
	}
	var (
		recs   []durable.Record
		starts []online.Start
		apply  = applyFed(fd, &starts)
	)
	err = drive(ladderJobs(jobs), w.population, func(r *durable.Record) ([]online.Start, error) {
		recs = append(recs, *r)
		return apply(r)
	})
	return recs, err
}

func runLadder(w spec, s *stream, seed uint64) (*ladder, error) {
	recs, err := prefixRecords(w, s.jobs)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(journals.dir, "ladder-"+w.name)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg, err := w.fedConfig()
	if err != nil {
		return nil, err
	}
	out, err := newOuter(w, cfg, dir)
	if err != nil {
		return nil, err
	}
	in, err := newInner(w, cfg, dir)
	if err != nil {
		return nil, err
	}
	defer in.close()
	defer out.close()

	l := &ladder{rec: newRecorder(12*len(recs) + 16)}
	rec := l.rec
	var (
		frame, payload, resp, respFrame []byte
		drecs                           []durable.Record
		all                             []online.Start
	)
	for at := 0; at < len(recs); at += w.frame {
		end := at + w.frame
		if end > len(recs) {
			end = len(recs)
		}
		batch := recs[at:end]
		req := l.ops
		l.ops++
		l.records += len(batch)

		// Client side: render the op.
		sp := rec.begin("client.encode", -1, req)
		if w.binary {
			if payload, err = fed.AppendBatchMsg(payload[:0], batch); err != nil {
				return nil, err
			}
			frame = fed.AppendFrame(frame[:0], payload)
		} else {
			frame = appendHTTPRecord(frame[:0], &batch[0])
		}
		rec.end(sp)
		l.reqBytes += len(frame)

		// Daemon side, in its call order.
		root := rec.begin("op", -1, req)
		apply := batch
		if w.binary {
			sp = rec.begin("fed_wire.decode", root, req)
			drecs, err = fed.DecodeMsg(frame[4:], drecs[:0])
			rec.end(sp)
			if err != nil {
				return nil, err
			}
			apply = drecs
		}
		all = all[:0]
		var clock float64
		for i := range apply {
			r := &apply[i]
			if r.Op == durable.OpSubmit {
				l.submits++
			} else {
				l.completes++
			}
			parent, starts, c, err := out.apply(rec, root, req, r)
			if err != nil {
				return nil, fmt.Errorf("ladder op %d: %w", req, err)
			}
			clock = c
			all = append(all, starts...)
			if err := in.apply(rec, parent, req, r); err != nil {
				return nil, fmt.Errorf("ladder op %d (inner): %w", req, err)
			}
		}
		if w.binary {
			sp = rec.begin("fed_wire.encode_resp", root, req)
			resp = fed.AppendOKResp(resp[:0], clock, all)
			respFrame = fed.AppendFrame(respFrame[:0], resp)
			rec.end(sp)
			l.respBytes += len(respFrame)
		}
		rec.end(root)
	}
	if got, want := in.status(), out.status(); got != want {
		return nil, fmt.Errorf("ladder: the standalone layers ended in another state than the real apply path:\n got  %+v\n want %+v", got, want)
	}
	if in.router != nil {
		l.stolen = in.router.Stolen()
	}
	l.journal = out.journalIO()
	// What the spans explain of one op: the root's duration, where the
	// inner re-execution (not part of the daemon's work) is excluded by
	// construction — the inner spans run inside the root's interval, so
	// subtract them.
	// Recording itself costs a clock read inside each span and one
	// outside; both are measured on empty spans and taken out.
	inside, outside := spanCost()
	l.spanNs = inside
	innerNs := make([]float64, l.ops)
	for _, sp := range rec.spans {
		if sp.name == "op" || sp.name == "client.encode" {
			continue
		}
		innerNs[sp.req] += outside
		if rec.spans[sp.parent].parent >= 0 {
			innerNs[sp.req] += float64(sp.dur())
		} else {
			innerNs[sp.req] += inside
		}
	}
	for _, sp := range rec.spans {
		if sp.name == "op" {
			l.opNs = append(l.opNs, float64(sp.dur())-inside-innerNs[sp.req])
		}
	}

	// Reads take the locks writes take: one merged status on the real
	// target, the median of a few.
	var us []float64
	for i := 0; i < 9; i++ {
		t := time.Now()
		out.status()
		us = append(us, float64(time.Since(t).Nanoseconds())/1e3)
	}
	l.statusUs = median(us)

	l.scoreNsPerEval = scoreCost(cfg.Opt.Policy, s.jobs)
	if w.durable {
		if err := l.journalExtras(cfg, in, out); err != nil {
			return nil, err
		}
	}
	if l.telemetryRatio, err = telemetryOverhead(cfg, recs); err != nil {
		return nil, err
	}
	if w.adapt {
		if err := l.trainerCosts(w, s.jobs, seed); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// scoreCost times the workload's policy on its own jobs.
func scoreCost(p sched.Policy, jobs []workload.Job) float64 {
	n := len(jobs)
	if n > 4096 {
		n = 4096
	}
	views := make([]sched.JobView, n)
	for i, j := range jobs[:n] {
		views[i] = sched.JobView{Runtime: j.Estimate, Cores: float64(j.Cores), Submit: j.Submit, Wait: 60}
	}
	const reps = 64
	var sink float64
	t := time.Now()
	for r := 0; r < reps; r++ {
		for i := range views {
			sink += p.Score(views[i])
		}
	}
	ns := float64(time.Since(t).Nanoseconds())
	if sink == -1 {
		fmt.Fprintln(os.Stderr) // keeps the loop's result live
	}
	return ns / float64(reps*n)
}

// journalExtras measures recovery and checkpointing on shard 0's journal
// copy: close it, reopen and replay it the way a booting daemon does,
// then write the real shard's snapshot through it.
func (l *ladder) journalExtras(cfg fed.Config, in *inner, out *outer) error {
	st := in.stores[0]
	dir := filepath.Join(in.dir, "inner-0")
	if err := st.Close(); err != nil {
		return err
	}
	t := time.Now()
	reopened, recovered, err := durable.Open(dir, durable.Options{SyncEvery: 1 << 30})
	if err != nil {
		return err
	}
	s, err := online.New(cfg.ShardCores, cfg.Opt)
	if err != nil {
		return err
	}
	for i := range recovered.Records {
		r := &recovered.Records[i]
		switch r.Op {
		case durable.OpSubmit:
			_, err = s.SubmitAt(r.Now, r.Job)
		case durable.OpComplete:
			_, err = s.CompleteAt(r.Now, r.ID)
		}
		if err != nil {
			return fmt.Errorf("ladder: journal replay: %w", err)
		}
	}
	secs := time.Since(t).Seconds()
	in.stores[0] = reopened
	if n := len(recovered.Records); n > 0 && secs > 0 {
		l.recoverRecsPerS = float64(n) / secs
	}
	snap, err := out.fd.ShardSnapshot(0)
	if err != nil {
		return err
	}
	t = time.Now()
	if err := reopened.Checkpoint(snap); err != nil {
		return err
	}
	l.checkpointMs = time.Since(t).Seconds() * 1e3
	return nil
}

// telemetryOverhead replays the prefix on a bare engine set and on an
// instrumented one, in alternating pairs, and returns the median ratio
// of bare to instrumented time (1 = free, lower = costlier).
func telemetryOverhead(cfg fed.Config, recs []durable.Record) (float64, error) {
	replayOnce := func(traceBuf int) (float64, error) {
		c := cfg
		c.TraceBuf = traceBuf
		fd, err := fed.New(c)
		if err != nil {
			return 0, err
		}
		var starts []online.Start
		apply := applyFed(fd, &starts)
		t := time.Now()
		for i := range recs {
			if _, err := apply(&recs[i]); err != nil {
				return 0, err
			}
		}
		return time.Since(t).Seconds(), nil
	}
	var ratios []float64
	for pair := 0; pair < 5; pair++ {
		bare, err := replayOnce(0)
		if err != nil {
			return 0, err
		}
		inst, err := replayOnce(telemetryBuf)
		if err != nil {
			return 0, err
		}
		if inst > 0 {
			ratios = append(ratios, bare/inst)
		}
	}
	return median(ratios), nil
}

// trainerCosts times one retraining round's building blocks on the
// stream's first window, sized the way http-adapt sizes the controller.
func (l *ladder) trainerCosts(w spec, jobs []workload.Job, seed uint64) error {
	win := jobs
	if len(win) > 512 {
		win = win[:512]
	}
	var (
		samples           []mlfit.Sample
		sampleUs, scoreMs []float64
	)
	for i := 0; i < adaptTuples; i++ {
		t := time.Now()
		tup, err := trainer.SampleTuple(win, adaptSSize, adaptQSize, w.cores, seed+uint64(i))
		if err != nil {
			return err
		}
		sampleUs = append(sampleUs, float64(time.Since(t).Nanoseconds())/1e3)
		t = time.Now()
		sc, err := trainer.ScoreTuple(tup, trainer.TrialConfig{Trials: adaptTrials, Workers: 1, Seed: seed + uint64(i)})
		if err != nil {
			return err
		}
		scoreMs = append(scoreMs, time.Since(t).Seconds()*1e3)
		samples = append(samples, sc.Samples...)
	}
	l.sampleTupleUs, l.scoreTupleMs = median(sampleUs), median(scoreMs)
	t := time.Now()
	if _, err := mlfit.FitAll(samples, mlfit.Options{Workers: 1}); err != nil {
		return err
	}
	l.fitAllMs = time.Since(t).Seconds() * 1e3
	return nil
}
