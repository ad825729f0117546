package durable

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/hpcsched/gensched/internal/adaptive"
	"github.com/hpcsched/gensched/internal/dist"
	"github.com/hpcsched/gensched/internal/online"
	"github.com/hpcsched/gensched/internal/sched"
	"github.com/hpcsched/gensched/internal/schedcore"
	"github.com/hpcsched/gensched/internal/sim"
	"github.com/hpcsched/gensched/internal/simtest"
	"github.com/hpcsched/gensched/internal/workload"
)

// TestSnapshotRoundTripIdempotent is the serialization property test:
// for mid-stream scheduler states across adversarial workloads and every
// backfill mode, snapshot → decode → restore → snapshot must reproduce
// the exact bytes. Byte-level idempotence is what makes the crash-point
// test's fingerprint comparison meaningful: if encoding lost or mangled
// anything, a second generation of snapshots would drift.
func TestSnapshotRoundTripIdempotent(t *testing.T) {
	seeds := []uint64{3, 17, 99}
	n := 70
	if testing.Short() {
		seeds = seeds[:1]
		n = 40
	}
	for _, seed := range seeds {
		for _, mode := range simtest.Modes {
			for _, withAdapt := range []bool{false, true} {
				name := fmt.Sprintf("seed=%d/%s/adapt=%v", seed, mode, withAdapt)
				t.Run(name, func(t *testing.T) {
					runSnapshotTrip(t, seed, n, mode, withAdapt)
				})
			}
		}
	}
}

func runSnapshotTrip(t *testing.T, seed uint64, n int, mode sim.BackfillMode, withAdapt bool) {
	const cores = 24
	jobs := simtest.RandomJobs(dist.New(seed), n, cores)
	opt := online.Options{
		Policy:       sched.F1(),
		UseEstimates: true,
		Backfill:     mode,
		Check:        true,
	}
	init := InitState{Cores: cores, Backfill: int(mode), UseEstimates: true, PolicyName: "F1"}
	s, err := online.New(cores, opt)
	if err != nil {
		t.Fatal(err)
	}
	var ad *adaptive.Controller
	ac := AdaptConfig{Window: 48, MinWindow: 6, Interval: 120, SSize: 8, QSize: 12,
		Tuples: 1, Trials: 6, TopK: 1, Workers: 1, Seed: seed}
	if withAdapt {
		ad, err = adaptive.New(adaptCfg(&ac, cores, 0, opt, s))
		if err != nil {
			t.Fatal(err)
		}
	}

	drive(t, jobs, s, ad, func(events int, last bool) bool {
		if events%17 == 0 || last {
			checkTrip(t, events, cores, init, opt, s, ad, &ac)
		}
		return true
	})
}

// drive replays jobs through s (ticking ad, when set, after every
// event) and calls each after every event with the running event count
// and whether the event heap is empty; each returning false stops the
// replay.
func drive(t *testing.T, jobs []workload.Job, s *online.Scheduler, ad *adaptive.Controller, each func(events int, last bool) bool) {
	t.Helper()
	var h schedcore.EventHeap
	for i := range jobs {
		h.Push(schedcore.Event{Time: jobs[i].Submit, Kind: schedcore.KindArrival, Ref: i})
	}
	events := 0
	for h.Len() > 0 {
		ev := h.Pop()
		var starts []online.Start
		var err error
		switch ev.Kind {
		case schedcore.KindArrival:
			starts, err = s.SubmitAt(ev.Time, jobs[ev.Ref])
			if err == nil && ad != nil {
				ad.Observe(jobs[ev.Ref])
			}
		case schedcore.KindCompletion:
			starts, err = s.CompleteAt(ev.Time, jobs[ev.Ref].ID)
		}
		if err != nil {
			t.Fatalf("event %d: %v", events, err)
		}
		if ad != nil {
			if _, err := ad.Tick(s.Clock(), s.Policy()); err != nil {
				t.Fatalf("event %d: tick: %v", events, err)
			}
		}
		for _, st := range starts {
			var i int
			for i = range jobs {
				if jobs[i].ID == st.ID {
					break
				}
			}
			h.Push(schedcore.Event{Time: st.Time + jobs[i].Runtime, Kind: schedcore.KindCompletion, Ref: i})
		}
		events++
		if !each(events, h.Len() == 0) {
			return
		}
	}
}

// goldenSnapshot is a fully populated shard snapshot: a conservative
// backfilling scheduler stopped mid-stream with running and queued
// jobs, the adaptive loop attached, a custom policy descriptor and a
// federation tag.
func goldenSnapshot(t *testing.T) *Snapshot {
	t.Helper()
	const cores = 16
	mode := sim.BackfillConservative
	opt := online.Options{Policy: sched.F1(), UseEstimates: true, Backfill: mode, Tau: 10}
	s, err := online.New(cores, opt)
	if err != nil {
		t.Fatal(err)
	}
	ac := AdaptConfig{Window: 32, MinWindow: 4, Interval: 60, MinDrift: 0.05, SSize: 4, QSize: 6,
		Tuples: 1, Trials: 2, TopK: 1, Margin: 0.1, Cooldown: 30, Workers: 1, Seed: 11}
	ad, err := adaptive.New(adaptCfg(&ac, cores, 0, opt, s))
	if err != nil {
		t.Fatal(err)
	}
	drive(t, simtest.RandomJobs(dist.New(5), 40, cores), s, ad, func(events int, _ bool) bool {
		return events < 45
	})
	snap := &Snapshot{
		Seq:        45,
		Init:       InitState{Cores: cores, Backfill: int(mode), UseEstimates: true, Tau: 10, PolicyName: "F1"},
		PolicyName: "CUSTOM",
		PolicyExpr: "log10(r)*n + 870*log10(s)",
		Adapt:      &AdaptState{Config: ac, State: *ad.ExportState()},
		Fed:        FedState{Shard: 3, Shards: 8, Seed: 42, StolenOnto: 17, VT: 12345.5},
	}
	if err := s.ExportState(&snap.Sched); err != nil {
		t.Fatal(err)
	}
	if len(snap.Sched.Active) == 0 {
		t.Fatal("golden snapshot has no running jobs")
	}
	return snap
}

// TestSnapshotGoldenBytes pins the encoding of a fully populated tagged
// snapshot: a shard checkpoint written by an earlier build must decode,
// and re-encode, to exactly the same bytes. The same bytes without the
// federation tag (a single-engine snapshot from before per-shard
// stores), or with a zero tag flag, must be refused.
func TestSnapshotGoldenBytes(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "snapshot_tagged.hex"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := hex.DecodeString(strings.Join(strings.Fields(string(raw)), ""))
	if err != nil {
		t.Fatal(err)
	}
	got := EncodeSnapshot(goldenSnapshot(t))
	if !bytes.Equal(got, want) {
		t.Fatalf("golden snapshot encodes to %d bytes, golden has %d (first difference at %d)",
			len(got), len(want), firstDiff(got, want))
	}
	dec, err := DecodeSnapshot(want)
	if err != nil {
		t.Fatal(err)
	}
	if again := EncodeSnapshot(dec); !bytes.Equal(again, want) {
		t.Fatalf("golden snapshot does not re-encode to itself (first difference at %d)", firstDiff(again, want))
	}

	const tagLen = 1 + 5*8 // flag byte, shard, shards, seed, stolen, vt
	untagged := want[:len(want)-tagLen]
	zeroFlag := append(append([]byte(nil), untagged...), 0)
	zeroTag := append(append([]byte(nil), untagged...), make([]byte, tagLen)...)
	for _, payload := range [][]byte{untagged, zeroFlag, zeroTag} {
		if _, err := DecodeSnapshot(payload); err == nil || !strings.Contains(err.Error(), "no federation tag") {
			t.Errorf("%d-byte untagged payload: DecodeSnapshot = %v, want a missing-federation-tag error", len(payload), err)
		}
	}
}

func adaptCfg(ac *AdaptConfig, cores int, now float64, opt online.Options, s *online.Scheduler) adaptive.Config {
	return adaptive.Config{
		Cores: cores, Now: now,
		Backfill: opt.Backfill, BackfillOrder: opt.BackfillOrder,
		UseEstimates: opt.UseEstimates, Tau: opt.Tau,
		Window: ac.Window, MinWindow: ac.MinWindow, Interval: ac.Interval,
		MinDrift: ac.MinDrift, SSize: ac.SSize, QSize: ac.QSize,
		Tuples: ac.Tuples, Trials: ac.Trials, TopK: ac.TopK,
		Margin: ac.Margin, Cooldown: ac.Cooldown, Workers: ac.Workers,
		Seed: ac.Seed, Queue: s.QueuedJobs,
	}
}

// checkTrip snapshots the live state, round-trips it through the codec
// and a full restore, and requires the second-generation snapshot to be
// byte-identical. The federated crash suite's byte oracle rides on
// this.
func checkTrip(t *testing.T, at, cores int, init InitState, opt online.Options, s *online.Scheduler, ad *adaptive.Controller, ac *AdaptConfig) {
	t.Helper()
	snap := &Snapshot{Seq: uint64(at), Init: init, PolicyName: "F1",
		Fed: FedState{Shard: at % 7, Shards: 8, Seed: 42, StolenOnto: at, VT: float64(at) * 1.5}}
	if err := s.ExportState(&snap.Sched); err != nil {
		t.Fatalf("event %d: export: %v", at, err)
	}
	if ad != nil {
		snap.Adapt = &AdaptState{Config: *ac, State: *ad.ExportState()}
	}
	enc := EncodeSnapshot(snap)

	dec, err := DecodeSnapshot(enc)
	if err != nil {
		t.Fatalf("event %d: decode: %v", at, err)
	}
	s2, err := online.Restore(cores, opt, &dec.Sched)
	if err != nil {
		t.Fatalf("event %d: restore: %v", at, err)
	}
	if dec.Fed != snap.Fed {
		t.Fatalf("event %d: fed state changed in round trip: %+v vs %+v", at, dec.Fed, snap.Fed)
	}
	snap2 := &Snapshot{Seq: dec.Seq, Init: dec.Init, PolicyName: dec.PolicyName, PolicyExpr: dec.PolicyExpr, Fed: dec.Fed}
	if err := s2.ExportState(&snap2.Sched); err != nil {
		t.Fatalf("event %d: re-export: %v", at, err)
	}
	if dec.Adapt != nil {
		ad2, err := adaptive.Restore(adaptCfg(&dec.Adapt.Config, cores, s2.Clock(), opt, s2), &dec.Adapt.State)
		if err != nil {
			t.Fatalf("event %d: adaptive restore: %v", at, err)
		}
		snap2.Adapt = &AdaptState{Config: dec.Adapt.Config, State: *ad2.ExportState()}
	}
	enc2 := EncodeSnapshot(snap2)
	if !bytes.Equal(enc, enc2) {
		t.Fatalf("event %d: snapshot not idempotent: %d vs %d bytes (first difference at %d)",
			at, len(enc), len(enc2), firstDiff(enc, enc2))
	}

}

// FuzzDecodeSnapshot hammers the snapshot decoder — the recovery
// surface a corrupted checkpoint reaches — with mutated payloads seeded
// from shard-tagged encodings. The decoder must never panic, and
// anything it accepts must re-encode canonically: encode(decode(x)) is
// a fixed point of decode∘encode.
func FuzzDecodeSnapshot(f *testing.F) {
	base := Snapshot{
		Seq:  7,
		Init: InitState{Cores: 128, Backfill: 1, UseEstimates: true, Tau: 10, PolicyName: "F1"},
		Fed:  FedState{Shard: 0, Shards: 1, Seed: 1},
	}
	f.Add(EncodeSnapshot(&base))
	tagged := base
	tagged.Fed = FedState{Shard: 3, Shards: 8, Seed: 42, StolenOnto: 17, VT: 12345.5}
	f.Add(EncodeSnapshot(&tagged))
	adapt := tagged
	adapt.Adapt = &AdaptState{Config: AdaptConfig{Window: 48, MinWindow: 6, Interval: 120,
		SSize: 8, QSize: 12, Tuples: 1, Trials: 6, TopK: 1, Workers: 1, Seed: 9}}
	f.Add(EncodeSnapshot(&adapt))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		snap, err := DecodeSnapshot(payload)
		if err != nil {
			return
		}
		enc := EncodeSnapshot(snap)
		back, err := DecodeSnapshot(enc)
		if err != nil {
			t.Fatalf("re-encoded snapshot fails to decode: %v", err)
		}
		if enc2 := EncodeSnapshot(back); !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding is not canonical: %d vs %d bytes (first difference at %d)",
				len(enc), len(enc2), firstDiff(enc, enc2))
		}
		// Bit-for-bit: a NaN VT is a legal payload and NaN != NaN.
		a, b := snap.Fed, back.Fed
		if a.Shard != b.Shard || a.Shards != b.Shards || a.Seed != b.Seed ||
			a.StolenOnto != b.StolenOnto || math.Float64bits(a.VT) != math.Float64bits(b.VT) {
			t.Fatalf("fed tag changed across re-decode: %+v vs %+v", a, b)
		}
	})
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// TestRecordRoundTrip pins the record codec field-for-field, including
// the t=0 instant and every op shape.
func TestRecordRoundTrip(t *testing.T) {
	now := 0.0
	recs := []Record{
		{Op: OpInit, Init: &InitState{Cores: 128, Backfill: 2, UseEstimates: true, Tau: 10,
			PolicyName: "L1", PolicyExpr: "log10(r)*n"}},
		{Op: OpSubmit, Now: now, Job: workload.Job{ID: 1, Submit: 0, Runtime: 5, Estimate: 9, Cores: 2}},
		{Op: OpComplete, Now: 5, ID: 1},
		{Op: OpAdvance, Now: 123.456},
		{Op: OpPolicy, Name: "CUSTOM", Expr: "log10(r)*n + 870*log10(s)"},
		{Op: OpAdaptStart, Adapt: &AdaptConfig{Window: 64, MinWindow: 8, Interval: 200,
			MinDrift: 0.1, SSize: 8, QSize: 16, Tuples: 2, Trials: 8, TopK: 1,
			Margin: 0.05, Cooldown: 400, Workers: 3, Seed: 99}},
		{Op: OpAdaptStop},
	}
	for _, r := range recs {
		payload, err := appendRecord(nil, &r)
		if err != nil {
			t.Fatalf("%v: encode: %v", r.Op, err)
		}
		got, err := decodeRecord(payload)
		if err != nil {
			t.Fatalf("%v: decode: %v", r.Op, err)
		}
		want := r
		if want.Init != nil {
			ini := *want.Init
			want.Init = &ini
		}
		if got.Op != want.Op || got.Now != want.Now || got.Job != want.Job ||
			got.ID != want.ID || got.Name != want.Name || got.Expr != want.Expr {
			t.Fatalf("%v: round trip changed scalars: %+v vs %+v", r.Op, got, r)
		}
		if (got.Init == nil) != (r.Init == nil) || (got.Init != nil && *got.Init != *r.Init) {
			t.Fatalf("%v: init state changed", r.Op)
		}
		if (got.Adapt == nil) != (r.Adapt == nil) || (got.Adapt != nil && *got.Adapt != *r.Adapt) {
			t.Fatalf("%v: adapt config changed", r.Op)
		}
	}
}
