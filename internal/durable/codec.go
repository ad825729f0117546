// The wire codec: hand-rolled, fixed-layout little-endian encoding for
// records and snapshots. encoding/gob and encoding/json are deliberately
// avoided — both walk maps and neither guarantees a canonical byte
// stream, and the snapshot contract is exactly canonicality: encoding the
// same state twice yields the same bytes (the serialization-idempotence
// property test pins snapshot→restore→snapshot byte-identical). Floats
// are carried as IEEE-754 bit patterns, so ±Inf sentinels and every
// accumulated rounding survive a round trip untouched.

package durable

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/hpcsched/gensched/internal/adaptive"
	"github.com/hpcsched/gensched/internal/online"
	"github.com/hpcsched/gensched/internal/schedcore"
	"github.com/hpcsched/gensched/internal/workload"
)

// --- append primitives ---------------------------------------------------

func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
func appendInt(b []byte, v int) []byte    { return appendU64(b, uint64(int64(v))) }
func appendF64(b []byte, v float64) []byte {
	return appendU64(b, math.Float64bits(v))
}
func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}
func appendStr(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}
func appendInts(b []byte, v []int) []byte {
	b = appendU32(b, uint32(len(v)))
	for _, x := range v {
		b = appendInt(b, x)
	}
	return b
}

func appendJob(b []byte, j workload.Job) []byte {
	b = appendInt(b, j.ID)
	b = appendF64(b, j.Submit)
	b = appendF64(b, j.Runtime)
	b = appendF64(b, j.Estimate)
	return appendInt(b, j.Cores)
}

func appendJobs(b []byte, js []workload.Job) []byte {
	b = appendU32(b, uint32(len(js)))
	for _, j := range js {
		b = appendJob(b, j)
	}
	return b
}

// --- decoder -------------------------------------------------------------

// decoder consumes a payload with a sticky error: after the first
// malformed read every subsequent read returns zero values, and finish
// reports the failure (or leftover bytes) once.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("durable: truncated payload reading %s", what)
	}
}

func (d *decoder) u32(what string) uint32 {
	if d.err != nil || len(d.b) < 4 {
		d.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b)
	d.b = d.b[4:]
	return v
}

func (d *decoder) u64(what string) uint64 {
	if d.err != nil || len(d.b) < 8 {
		d.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

func (d *decoder) int(what string) int     { return int(int64(d.u64(what))) }
func (d *decoder) f64(what string) float64 { return math.Float64frombits(d.u64(what)) }
func (d *decoder) bool(what string) bool {
	if d.err != nil || len(d.b) < 1 {
		d.fail(what)
		return false
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v != 0
}

func (d *decoder) str(what string) string {
	n := int(d.u32(what))
	if d.err != nil || len(d.b) < n {
		d.fail(what)
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

// count reads a collection length and bounds it by the bytes that remain
// (elemSize is the minimum encoding of one element), so corrupt payloads
// cannot demand absurd allocations.
func (d *decoder) count(what string, elemSize int) int {
	n := int(d.u32(what))
	if d.err == nil && n*elemSize > len(d.b) {
		d.err = fmt.Errorf("durable: %s count %d exceeds remaining payload", what, n)
		return 0
	}
	return n
}

func (d *decoder) ints(what string) []int {
	n := d.count(what, 8)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = d.int(what)
	}
	return out
}

func (d *decoder) job(what string) workload.Job {
	var j workload.Job
	j.ID = d.int(what)
	j.Submit = d.f64(what)
	j.Runtime = d.f64(what)
	j.Estimate = d.f64(what)
	j.Cores = d.int(what)
	return j
}

func (d *decoder) jobs(what string) []workload.Job {
	n := d.count(what, 5*8)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]workload.Job, n)
	for i := range out {
		out[i] = d.job(what)
	}
	return out
}

func (d *decoder) finish(what string) error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("durable: %s payload has %d trailing bytes", what, len(d.b))
	}
	return nil
}

// --- record codec --------------------------------------------------------

// AppendRecord encodes r's payload (no framing) onto dst. The encoding is
// the journal's: op byte followed by the op's fixed-width LE fields. It is
// exported for the federation wire protocol (internal/fed), which carries
// the same record payloads inside length-prefixed frames — one codec, one
// set of golden vectors, whether a record is bound for disk or a socket.
func AppendRecord(dst []byte, r *Record) ([]byte, error) {
	return appendRecord(dst, r)
}

// DecodeRecord parses one record payload produced by AppendRecord.
func DecodeRecord(payload []byte) (Record, error) {
	return decodeRecord(payload)
}

// appendRecord encodes r's payload (no framing) onto dst.
func appendRecord(dst []byte, r *Record) ([]byte, error) {
	dst = append(dst, byte(r.Op))
	switch r.Op {
	case OpInit:
		if r.Init == nil {
			return nil, fmt.Errorf("durable: init record without init state")
		}
		dst = appendInitState(dst, r.Init)
	case OpSubmit:
		dst = appendF64(dst, r.Now)
		dst = appendJob(dst, r.Job)
	case OpComplete:
		dst = appendF64(dst, r.Now)
		dst = appendInt(dst, r.ID)
	case OpAdvance:
		dst = appendF64(dst, r.Now)
	case OpPolicy:
		dst = appendStr(dst, r.Name)
		dst = appendStr(dst, r.Expr)
	case OpAdaptStart:
		if r.Adapt == nil {
			return nil, fmt.Errorf("durable: adapt-start record without config")
		}
		dst = appendAdaptConfig(dst, r.Adapt)
	case OpAdaptStop:
	default:
		return nil, fmt.Errorf("durable: cannot encode unknown op %d", r.Op)
	}
	return dst, nil
}

// decodeRecord parses one record payload.
func decodeRecord(payload []byte) (Record, error) {
	if len(payload) == 0 {
		return Record{}, fmt.Errorf("durable: empty record payload")
	}
	r := Record{Op: Op(payload[0])}
	d := &decoder{b: payload[1:]}
	switch r.Op {
	case OpInit:
		ini := decodeInitState(d)
		r.Init = &ini
	case OpSubmit:
		r.Now = d.f64("submit now")
		r.Job = d.job("submit job")
	case OpComplete:
		r.Now = d.f64("complete now")
		r.ID = d.int("complete id")
	case OpAdvance:
		r.Now = d.f64("advance now")
	case OpPolicy:
		r.Name = d.str("policy name")
		r.Expr = d.str("policy expr")
	case OpAdaptStart:
		ac := decodeAdaptConfig(d)
		r.Adapt = &ac
	case OpAdaptStop:
	default:
		return Record{}, fmt.Errorf("durable: unknown record op %d", r.Op)
	}
	return r, d.finish(r.Op.String())
}

func appendInitState(b []byte, ini *InitState) []byte {
	b = appendInt(b, ini.Cores)
	b = appendInt(b, ini.Backfill)
	b = appendBool(b, ini.UseEstimates)
	b = appendF64(b, ini.Tau)
	b = appendStr(b, ini.PolicyName)
	return appendStr(b, ini.PolicyExpr)
}

func decodeInitState(d *decoder) InitState {
	var ini InitState
	ini.Cores = d.int("init cores")
	ini.Backfill = d.int("init backfill")
	ini.UseEstimates = d.bool("init estimates")
	ini.Tau = d.f64("init tau")
	ini.PolicyName = d.str("init policy name")
	ini.PolicyExpr = d.str("init policy expr")
	return ini
}

func appendAdaptConfig(b []byte, ac *AdaptConfig) []byte {
	b = appendInt(b, ac.Window)
	b = appendInt(b, ac.MinWindow)
	b = appendF64(b, ac.Interval)
	b = appendF64(b, ac.MinDrift)
	b = appendInt(b, ac.SSize)
	b = appendInt(b, ac.QSize)
	b = appendInt(b, ac.Tuples)
	b = appendInt(b, ac.Trials)
	b = appendInt(b, ac.TopK)
	b = appendF64(b, ac.Margin)
	b = appendF64(b, ac.Cooldown)
	b = appendInt(b, ac.Workers)
	return appendU64(b, ac.Seed)
}

func decodeAdaptConfig(d *decoder) AdaptConfig {
	var ac AdaptConfig
	ac.Window = d.int("adapt window")
	ac.MinWindow = d.int("adapt min window")
	ac.Interval = d.f64("adapt interval")
	ac.MinDrift = d.f64("adapt min drift")
	ac.SSize = d.int("adapt ssize")
	ac.QSize = d.int("adapt qsize")
	ac.Tuples = d.int("adapt tuples")
	ac.Trials = d.int("adapt trials")
	ac.TopK = d.int("adapt topk")
	ac.Margin = d.f64("adapt margin")
	ac.Cooldown = d.f64("adapt cooldown")
	ac.Workers = d.int("adapt workers")
	ac.Seed = d.u64("adapt seed")
	return ac
}

// --- snapshot codec ------------------------------------------------------

// AdaptState is the adaptive loop's part of a snapshot: the start request
// that attached it plus the controller's serialized state.
type AdaptState struct {
	Config AdaptConfig
	State  adaptive.ControllerState
}

// FedState tags a shard's snapshot with its place in a federation. It
// exists so per-shard recovery can refuse a snapshot moved between
// shards or federations, and so the router's cumulative steal count —
// which completed jobs no longer witness — survives a restart: each
// shard carries the diversions onto itself, and the recovered total is
// the sum plus whatever per-record replay re-derives.
type FedState struct {
	Shard  int
	Shards int
	Seed   uint64
	// StolenOnto is the cumulative count of placements the router
	// diverted onto this shard off their hash-primary, as of Seq.
	StolenOnto int
	// VT is the router's fluid-model virtual completion time for this
	// shard as of Seq. Placements after recovery depend on it, so it must
	// survive the restart for routing to stay bit-identical.
	VT float64
}

// Snapshot is one checkpoint: the full scheduler image at journal
// sequence Seq. Recovery loads it and replays only records >= Seq.
type Snapshot struct {
	Seq  uint64
	Init InitState
	// PolicyName/PolicyExpr is the descriptor of the policy active at the
	// checkpoint (it differs from Init's after swaps and promotions).
	PolicyName string
	PolicyExpr string
	Sched      online.SchedulerState
	Adapt      *AdaptState
	// Fed places the snapshot in its federation. Every snapshot carries
	// it; the decoder refuses one without.
	Fed FedState
}

// EncodeSnapshot renders the snapshot payload (no framing). The encoding
// is canonical: equal states produce equal bytes.
func EncodeSnapshot(snap *Snapshot) []byte {
	b := make([]byte, 0, 1024)
	b = appendU64(b, snap.Seq)
	b = appendInitState(b, &snap.Init)
	b = appendStr(b, snap.PolicyName)
	b = appendStr(b, snap.PolicyExpr)
	b = appendSchedulerState(b, &snap.Sched)
	if snap.Adapt == nil {
		b = appendBool(b, false)
	} else {
		b = appendBool(b, true)
		b = appendAdaptConfig(b, &snap.Adapt.Config)
		b = appendControllerState(b, &snap.Adapt.State)
	}
	b = appendBool(b, true) // the fed tag's flag byte, always set
	b = appendInt(b, snap.Fed.Shard)
	b = appendInt(b, snap.Fed.Shards)
	b = appendU64(b, snap.Fed.Seed)
	b = appendInt(b, snap.Fed.StolenOnto)
	b = appendF64(b, snap.Fed.VT)
	return b
}

// DecodeSnapshot parses a snapshot payload.
func DecodeSnapshot(payload []byte) (*Snapshot, error) {
	d := &decoder{b: payload}
	snap := &Snapshot{}
	snap.Seq = d.u64("snapshot seq")
	snap.Init = decodeInitState(d)
	snap.PolicyName = d.str("snapshot policy name")
	snap.PolicyExpr = d.str("snapshot policy expr")
	decodeSchedulerState(d, &snap.Sched)
	if d.bool("snapshot adapt flag") {
		snap.Adapt = &AdaptState{}
		snap.Adapt.Config = decodeAdaptConfig(d)
		decodeControllerState(d, &snap.Adapt.State)
	}
	if d.err == nil && (len(d.b) == 0 || d.b[0] == 0) {
		return nil, fmt.Errorf("durable: snapshot carries no federation tag (a single-engine snapshot from before per-shard stores)")
	}
	d.bool("snapshot fed flag")
	snap.Fed.Shard = d.int("snapshot fed shard")
	snap.Fed.Shards = d.int("snapshot fed shards")
	snap.Fed.Seed = d.u64("snapshot fed seed")
	snap.Fed.StolenOnto = d.int("snapshot fed stolen")
	snap.Fed.VT = d.f64("snapshot fed vt")
	if err := d.finish("snapshot"); err != nil {
		return nil, err
	}
	return snap, nil
}

func appendSchedulerState(b []byte, st *online.SchedulerState) []byte {
	b = appendEngineState(b, &st.Eng)
	b = appendU32(b, uint32(len(st.Active)))
	for _, a := range st.Active {
		b = appendInt(b, a.ID)
		b = appendInt(b, a.Slot)
	}
	b = appendBool(b, st.Dirty)
	b = appendInt(b, st.Submitted)
	b = appendInt(b, st.Completed)
	b = appendF64(b, st.SumB)
	b = appendF64(b, st.SumW)
	b = appendF64(b, st.Busy)
	b = appendF64(b, st.MaxB)
	b = appendF64(b, st.MaxW)
	b = appendF64(b, st.FirstSubmit)
	return appendF64(b, st.LastFinish)
}

func decodeSchedulerState(d *decoder, st *online.SchedulerState) {
	decodeEngineState(d, &st.Eng)
	n := d.count("scheduler index", 16)
	st.Active = nil
	if n > 0 && d.err == nil {
		st.Active = make([]online.ActiveJob, n)
		for i := range st.Active {
			st.Active[i].ID = d.int("scheduler index id")
			st.Active[i].Slot = d.int("scheduler index slot")
		}
	}
	st.Dirty = d.bool("scheduler dirty")
	st.Submitted = d.int("scheduler submitted")
	st.Completed = d.int("scheduler completed")
	st.SumB = d.f64("scheduler sumB")
	st.SumW = d.f64("scheduler sumW")
	st.Busy = d.f64("scheduler busy")
	st.MaxB = d.f64("scheduler maxB")
	st.MaxW = d.f64("scheduler maxW")
	st.FirstSubmit = d.f64("scheduler first submit")
	st.LastFinish = d.f64("scheduler last finish")
}

func appendEngineState(b []byte, st *schedcore.EngineState) []byte {
	b = appendInt(b, st.Free)
	b = appendF64(b, st.Now)
	b = appendInt(b, st.MaxQueueLen)
	b = appendInt(b, st.Backfilled)
	b = appendU32(b, uint32(len(st.Tasks)))
	for i := range st.Tasks {
		t := &st.Tasks[i]
		b = appendJob(b, t.Job)
		b = appendF64(b, t.Perceived)
		b = appendF64(b, t.Execution)
		b = appendF64(b, t.Start)
		b = appendF64(b, t.Finish)
		b = appendBool(b, t.Started)
		b = appendBool(b, t.Done)
		b = appendBool(b, t.Backfill)
	}
	b = appendInts(b, st.FreeSlots)
	b = appendInts(b, st.Queue)
	return appendInts(b, st.Running)
}

func decodeEngineState(d *decoder, st *schedcore.EngineState) {
	st.Free = d.int("engine free")
	st.Now = d.f64("engine now")
	st.MaxQueueLen = d.int("engine max queue")
	st.Backfilled = d.int("engine backfilled")
	n := d.count("engine tasks", 5*8+4*8+3)
	st.Tasks = nil
	if n > 0 && d.err == nil {
		st.Tasks = make([]schedcore.TaskState, n)
		for i := range st.Tasks {
			t := &st.Tasks[i]
			t.Job = d.job("engine task job")
			t.Perceived = d.f64("engine task perceived")
			t.Execution = d.f64("engine task execution")
			t.Start = d.f64("engine task start")
			t.Finish = d.f64("engine task finish")
			t.Started = d.bool("engine task started")
			t.Done = d.bool("engine task done")
			t.Backfill = d.bool("engine task backfill")
		}
	}
	st.FreeSlots = d.ints("engine free slots")
	st.Queue = d.ints("engine queue")
	st.Running = d.ints("engine running")
}

func appendControllerState(b []byte, st *adaptive.ControllerState) []byte {
	b = appendJobs(b, st.Window)
	b = appendF64(b, st.Anchor)
	b = appendF64(b, st.NextCheck)
	b = appendF64(b, st.LastPromote)
	if st.LastChar == nil {
		b = appendBool(b, false)
	} else {
		b = appendBool(b, true)
		b = appendCharacterization(b, st.LastChar)
	}
	b = appendInt(b, st.Rounds)
	return appendInt(b, st.Promotions)
}

func decodeControllerState(d *decoder, st *adaptive.ControllerState) {
	st.Window = d.jobs("controller window")
	st.Anchor = d.f64("controller anchor")
	st.NextCheck = d.f64("controller next check")
	st.LastPromote = d.f64("controller last promote")
	st.LastChar = nil
	if d.bool("controller char flag") {
		var ch adaptive.Characterization
		decodeCharacterization(d, &ch)
		st.LastChar = &ch
	}
	st.Rounds = d.int("controller rounds")
	st.Promotions = d.int("controller promotions")
}

func appendCharacterization(b []byte, ch *adaptive.Characterization) []byte {
	b = appendInt(b, ch.Jobs)
	b = appendF64(b, ch.MeanLogRuntime)
	b = appendF64(b, ch.MeanLogCores)
	b = appendF64(b, ch.MeanLogGap)
	b = appendF64(b, ch.MeanCores)
	b = appendF64(b, ch.Span)
	b = appendF64(b, ch.Utilization)
	return appendInt(b, ch.AllocUnit)
}

func decodeCharacterization(d *decoder, ch *adaptive.Characterization) {
	ch.Jobs = d.int("char jobs")
	ch.MeanLogRuntime = d.f64("char mean log runtime")
	ch.MeanLogCores = d.f64("char mean log cores")
	ch.MeanLogGap = d.f64("char mean log gap")
	ch.MeanCores = d.f64("char mean cores")
	ch.Span = d.f64("char span")
	ch.Utilization = d.f64("char utilization")
	ch.AllocUnit = d.int("char alloc unit")
}
