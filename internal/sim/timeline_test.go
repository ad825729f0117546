package sim

import (
	"testing"

	"github.com/hpcsched/gensched/internal/sched"
	"github.com/hpcsched/gensched/internal/workload"
)

func TestTimelineRecording(t *testing.T) {
	jobs := []workload.Job{
		job(1, 0, 100, 4),
		job(2, 10, 50, 2),
		job(3, 20, 50, 2),
	}
	res := mustRun(t, Platform{Cores: 4}, jobs,
		Options{Policy: sched.FCFS(), RecordTimeline: true})
	if len(res.Timeline) == 0 {
		t.Fatal("no timeline recorded")
	}
	// Times are nondecreasing; cores in use stay within the platform.
	prev := res.Timeline[0].Time
	for _, p := range res.Timeline {
		if p.Time < prev {
			t.Fatalf("timeline not ordered: %v after %v", p.Time, prev)
		}
		prev = p.Time
		if p.CoresUse < 0 || p.CoresUse > 4 {
			t.Fatalf("cores in use %d outside [0,4]", p.CoresUse)
		}
		if p.QueueLen < 0 {
			t.Fatalf("negative queue length")
		}
	}
	// The first event (arrival of job 1) must show the machine filled.
	if res.Timeline[0].CoresUse != 4 {
		t.Errorf("first point cores = %d, want 4", res.Timeline[0].CoresUse)
	}
	// Final point: everything drained.
	last := res.Timeline[len(res.Timeline)-1]
	if last.CoresUse != 0 || last.QueueLen != 0 {
		t.Errorf("final point = %+v, want drained cluster", last)
	}
}

func TestTimelineOffByDefault(t *testing.T) {
	res := mustRun(t, Platform{Cores: 4}, []workload.Job{job(1, 0, 10, 1)},
		Options{Policy: sched.FCFS()})
	if res.Timeline != nil {
		t.Error("timeline recorded without opt-in")
	}
}

func TestTimelineQueuePeak(t *testing.T) {
	// Three jobs queue behind a blocker; the timeline must capture the
	// peak matching MaxQueueLen.
	jobs := []workload.Job{
		job(1, 0, 100, 4),
		job(2, 1, 10, 4),
		job(3, 2, 10, 4),
		job(4, 3, 10, 4),
	}
	res := mustRun(t, Platform{Cores: 4}, jobs,
		Options{Policy: sched.FCFS(), RecordTimeline: true})
	peak := 0
	for _, p := range res.Timeline {
		if p.QueueLen > peak {
			peak = p.QueueLen
		}
	}
	if peak != res.MaxQueueLen {
		t.Errorf("timeline peak %d != MaxQueueLen %d", peak, res.MaxQueueLen)
	}
}
