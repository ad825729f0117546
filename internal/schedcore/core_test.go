package schedcore

// White-box tests of the core's backfilling arithmetic: the conservative
// availability profile and the EASY head-reservation scan. End-to-end
// behavior is covered black-box through internal/sim (golden fixtures,
// oracle differentials, fuzzing) and internal/online (replay
// differentials).

import (
	"strings"
	"testing"

	"github.com/hpcsched/gensched/internal/sched"
	"github.com/hpcsched/gensched/internal/workload"
)

// --- profile (conservative backfilling availability structure) -----------

func newTestProfile(now float64, free int) *profile {
	return &profile{times: []float64{now}, avail: []int{free}}
}

func TestProfileEnsureBreakSplits(t *testing.T) {
	p := newTestProfile(0, 4)
	p.times = append(p.times, 100)
	p.avail = append(p.avail, 8)
	i := p.ensureBreak(50)
	if i != 1 {
		t.Fatalf("break index = %d, want 1", i)
	}
	if len(p.times) != 3 || p.times[1] != 50 || p.avail[1] != 4 {
		t.Fatalf("profile after split: times=%v avail=%v", p.times, p.avail)
	}
	// Existing breakpoint is reused, not duplicated.
	if j := p.ensureBreak(50); j != 1 || len(p.times) != 3 {
		t.Fatalf("re-break: index=%d times=%v", j, p.times)
	}
	// Before-origin clamps to 0.
	if j := p.ensureBreak(-5); j != 0 {
		t.Fatalf("pre-origin break = %d", j)
	}
}

func TestProfileReserveAndRelease(t *testing.T) {
	p := newTestProfile(0, 4)
	p.reserve(10, 20, 3) // [10, 30): 1 core left
	// A 15s 2-core job starting now would overlap the reservation.
	if got := p.earliestStart(2, 15); got != 30 {
		t.Errorf("earliestStart(2,15) = %v, want 30", got)
	}
	// A 5s 2-core job finishes before the reservation begins.
	if got := p.earliestStart(2, 5); got != 0 {
		t.Errorf("earliestStart(2,5) = %v, want 0", got)
	}
	if got := p.earliestStart(1, 5); got != 0 {
		t.Errorf("earliestStart(1,5) = %v, want 0 (fits beside reservation)", got)
	}
	// After the reservation ends, full capacity returns.
	if got := p.earliestStart(4, 100); got != 30 {
		t.Errorf("earliestStart(4,100) = %v, want 30", got)
	}
}

func TestProfileReserveAtOrigin(t *testing.T) {
	p := newTestProfile(5, 4)
	p.reserve(5, 10, 4)
	if got := p.earliestStart(1, 1); got != 15 {
		t.Errorf("earliestStart = %v, want 15", got)
	}
}

func TestProfileGapTooShort(t *testing.T) {
	// Two reservations with a 10s hole; a 20s job cannot use the hole.
	p := newTestProfile(0, 4)
	p.reserve(0, 10, 4)  // busy [0,10)
	p.reserve(20, 30, 4) // busy [20,50)
	if got := p.earliestStart(1, 20); got != 50 {
		t.Errorf("earliestStart(1,20) = %v, want 50 (hole too short)", got)
	}
	if got := p.earliestStart(1, 10); got != 10 {
		t.Errorf("earliestStart(1,10) = %v, want 10 (hole fits exactly)", got)
	}
}

func TestBuildProfileCoalescesSimultaneousReleases(t *testing.T) {
	e := &Engine{cores: 8, free: 2, now: 100}
	e.tasks = []Task{
		{Job: workload.Job{ID: 1, Cores: 3}, Perceived: 50, Start: 100},
		{Job: workload.Job{ID: 2, Cores: 3}, Perceived: 50, Start: 100},
	}
	e.running = []int{0, 1}
	p := e.buildProfile()
	if len(p.times) != 2 {
		t.Fatalf("times = %v, want coalesced 2 points", p.times)
	}
	if p.avail[0] != 2 || p.avail[1] != 8 {
		t.Fatalf("avail = %v", p.avail)
	}
}

// --- EASY reservation arithmetic -----------------------------------------

func TestHeadReservationShadowAndExtra(t *testing.T) {
	// 8 cores; running: A(3 cores until 100), B(2 cores until 200).
	// free = 3. Head wants 5: shadow = 100 (3+3=6 >= 5), extra = 1.
	e := &Engine{cores: 8, free: 3, now: 50}
	e.tasks = []Task{
		{Job: workload.Job{ID: 1, Cores: 3}, Perceived: 50, Start: 50},  // ends 100
		{Job: workload.Job{ID: 2, Cores: 2}, Perceived: 150, Start: 50}, // ends 200
		{Job: workload.Job{ID: 3, Cores: 5}},                            // head
	}
	e.running = []int{0, 1}
	e.queue = []int{2}
	shadow, extra := e.headReservation()
	if shadow != 100 || extra != 1 {
		t.Errorf("reservation = (%v, %d), want (100, 1)", shadow, extra)
	}
}

func TestHeadReservationOverranEstimate(t *testing.T) {
	// A running task whose perceived finish is in the past counts as
	// releasing "now": the head's shadow is the current time.
	e := &Engine{cores: 4, free: 0, now: 500}
	e.tasks = []Task{
		{Job: workload.Job{ID: 1, Cores: 4}, Perceived: 100, Start: 100}, // believed done at 200 < now
		{Job: workload.Job{ID: 2, Cores: 4}},
	}
	e.running = []int{0}
	e.queue = []int{1}
	shadow, extra := e.headReservation()
	if shadow != 500 || extra != 0 {
		t.Errorf("reservation = (%v, %d), want (500, 0)", shadow, extra)
	}
}

func TestPerceivedFinishClamp(t *testing.T) {
	e := &Engine{now: 1000}
	e.tasks = []Task{{Job: workload.Job{ID: 1}, Perceived: 10, Start: 0}}
	if got := e.perceivedFinish(0); got != 1000 {
		t.Errorf("perceivedFinish = %v, want clamped to now", got)
	}
	e.now = 5
	if got := e.perceivedFinish(0); got != 10 {
		t.Errorf("perceivedFinish = %v, want 10", got)
	}
}

// --- task slot recycling ---------------------------------------------------

func TestAddTaskReusesReleasedSlots(t *testing.T) {
	e := NewEngine(4, Config{Policy: sched.FCFS(), ExternalCompletions: true})
	a := e.AddTask(workload.Job{ID: 1, Runtime: 10, Estimate: 10, Cores: 1})
	b := e.AddTask(workload.Job{ID: 2, Runtime: 10, Estimate: 10, Cores: 1})
	if a == b {
		t.Fatalf("distinct tasks share a slot: %d", a)
	}
	e.Release(a)
	c := e.AddTask(workload.Job{ID: 3, Runtime: 5, Estimate: 5, Cores: 1})
	if c != a {
		t.Errorf("AddTask after Release = slot %d, want recycled slot %d", c, a)
	}
	if e.NumTasks() != 2 {
		t.Errorf("task table grew to %d slots, want 2", e.NumTasks())
	}
	if got := e.Task(c).Job.ID; got != 3 {
		t.Errorf("recycled slot holds job %d, want 3", got)
	}
}

// --- state export ----------------------------------------------------------

// TestExportRefusesPendingArrivals: batch arrivals never enter the event
// heap, so the export guard must count the ones the cursor has not
// consumed, and only those.
func TestExportRefusesPendingArrivals(t *testing.T) {
	e := NewEngine(4, Config{Policy: sched.FCFS(), ExternalCompletions: true})
	e.PushArrival(e.AddTask(workload.Job{ID: 1, Submit: 3, Runtime: 10, Estimate: 10, Cores: 1}))
	e.PushArrival(e.AddTask(workload.Job{ID: 2, Submit: 1, Runtime: 10, Estimate: 10, Cores: 1}))
	var st EngineState
	if err := e.ExportState(&st); err == nil || !strings.Contains(err.Error(), "2 pending events") {
		t.Fatalf("export with two pending arrivals: err = %v", err)
	}
	e.RunBatch() // consumes both arrivals; external mode schedules no completions
	if err := e.ExportState(&st); err != nil {
		t.Fatalf("export after the arrivals were consumed: %v", err)
	}
	if len(st.Running) != 2 || st.Now != 3 {
		t.Errorf("exported running=%v now=%v, want both tasks running at t=3", st.Running, st.Now)
	}
}

// --- event heap ------------------------------------------------------------

func TestEventHeapOrder(t *testing.T) {
	var h EventHeap
	// Same instant: completions (kind 0) before arrivals (kind 1), then
	// insertion order within a kind.
	h.Push(Event{Time: 5, Kind: KindArrival, Ref: 1})
	h.Push(Event{Time: 3, Kind: KindArrival, Ref: 2})
	h.Push(Event{Time: 5, Kind: KindCompletion, Ref: 3})
	h.Push(Event{Time: 5, Kind: KindArrival, Ref: 4})
	h.Push(Event{Time: 3, Kind: KindCompletion, Ref: 5})
	want := []int{5, 2, 3, 1, 4}
	for i, w := range want {
		if h.Len() != len(want)-i {
			t.Fatalf("len = %d at pop %d", h.Len(), i)
		}
		if got := h.Pop().Ref; got != w {
			t.Fatalf("pop %d = ref %d, want %d", i, got, w)
		}
	}
	if h.Len() != 0 {
		t.Fatalf("heap not drained: %d left", h.Len())
	}
}
