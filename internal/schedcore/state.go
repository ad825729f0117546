// Engine state export/import: the serializable image of an
// external-completions engine, placed next to Reset because the two share
// a contract — ImportState is Reset followed by an exact re-establishment
// of every decision input, so a restored engine is observationally the
// engine that was exported (the durable subsystem's crash-point test pins
// this bit for bit).
//
// Cached policy scores are deliberately not part of the image: they are a
// pure function of (task, policy), recomputed by SetPolicy on import. For
// static policies the exported queue order is already the (score, submit,
// id) order, and SetPolicy's stable sort is the identity on it; for
// time-varying policies every pass re-sorts anyway.

package schedcore

import (
	"fmt"

	"github.com/hpcsched/gensched/internal/workload"
)

// TaskState is the serializable image of one task-table slot.
type TaskState struct {
	Job       workload.Job
	Perceived float64
	Execution float64
	Start     float64
	Finish    float64
	Started   bool
	Done      bool
	Backfill  bool
}

// EngineState is the serializable image of an external-completions Engine:
// the task table with its free list, the policy-ordered waiting queue and
// the perceived-finish-ordered running set (both as task indices), the
// logical clock and the counters. The event heap and the batch arrivals
// are not part of the image because external-completions engines never
// use them — ExportState refuses any engine with either pending.
type EngineState struct {
	Free        int
	Now         float64
	MaxQueueLen int
	Backfilled  int
	Tasks       []TaskState
	FreeSlots   []int
	Queue       []int
	Running     []int
}

// ExportState writes the engine's serializable image into st, reusing its
// slices. Only external-completions engines are exportable: batch engines
// carry a pending event heap whose replay would need the original
// workload, not a state image.
func (e *Engine) ExportState(st *EngineState) error {
	if !e.cfg.ExternalCompletions {
		return fmt.Errorf("schedcore: only external-completions engines are exportable")
	}
	if n := e.events.Len() + len(e.arrivals) - e.next; n > 0 {
		return fmt.Errorf("schedcore: engine has %d pending events; not exportable", n)
	}
	st.Free = e.free
	st.Now = e.now
	st.MaxQueueLen = e.maxQueueLen
	st.Backfilled = e.backfilled
	st.Tasks = st.Tasks[:0]
	for i := range e.tasks {
		t := &e.tasks[i]
		st.Tasks = append(st.Tasks, TaskState{
			Job: t.Job, Perceived: t.Perceived, Execution: t.Execution,
			Start: t.Start, Finish: t.Finish,
			Started: t.Started, Done: t.Done, Backfill: t.Backfill,
		})
	}
	st.FreeSlots = append(st.FreeSlots[:0], e.freeSlots...)
	st.Queue = append(st.Queue[:0], e.queue...)
	st.Running = append(st.Running[:0], e.running...)
	return nil
}

// ImportState rebuilds the engine from an exported image: Reset, then
// restore the task table, free list, queue and running set, and re-score
// the queue under cfg.Policy. The image is validated structurally (index
// bounds, slot disjointness, core accounting) so a corrupt snapshot fails
// loudly instead of scheduling garbage.
func (e *Engine) ImportState(cores int, cfg Config, st *EngineState) error {
	if !cfg.ExternalCompletions {
		return fmt.Errorf("schedcore: state imports require an external-completions config")
	}
	if err := validateState(cores, st); err != nil {
		return err
	}
	e.Reset(cores, cfg)
	e.tasks = e.tasks[:0]
	for i := range st.Tasks {
		ts := &st.Tasks[i]
		e.tasks = append(e.tasks, Task{
			Job: ts.Job, Perceived: ts.Perceived, Execution: ts.Execution,
			Start: ts.Start, Finish: ts.Finish,
			Started: ts.Started, Done: ts.Done, Backfill: ts.Backfill,
		})
	}
	e.freeSlots = append(e.freeSlots[:0], st.FreeSlots...)
	e.queue = append(e.queue[:0], st.Queue...)
	e.running = append(e.running[:0], st.Running...)
	e.free = st.Free
	e.now = st.Now
	e.maxQueueLen = st.MaxQueueLen
	e.backfilled = st.Backfilled
	// Recompute cached scores and restore the queue order invariant; a
	// stable sort of the already-sorted exported order is the identity.
	e.SetPolicy(cfg.Policy)
	return nil
}

// validateState checks the structural invariants of an engine image.
func validateState(cores int, st *EngineState) error {
	n := len(st.Tasks)
	seen := make([]byte, n)
	mark := func(list []int, kind string, tag byte) error {
		for _, ti := range list {
			if ti < 0 || ti >= n {
				return fmt.Errorf("schedcore: state %s index %d outside task table of %d", kind, ti, n)
			}
			if seen[ti] != 0 {
				return fmt.Errorf("schedcore: state task %d appears in more than one of queue/running/free list", ti)
			}
			seen[ti] = tag
		}
		return nil
	}
	if err := mark(st.Queue, "queue", 1); err != nil {
		return err
	}
	if err := mark(st.Running, "running", 2); err != nil {
		return err
	}
	if err := mark(st.FreeSlots, "free-slot", 3); err != nil {
		return err
	}
	used := 0
	for _, ti := range st.Queue {
		if t := &st.Tasks[ti]; t.Started || t.Done {
			return fmt.Errorf("schedcore: state queued task %d already started or done", ti)
		}
	}
	for _, ti := range st.Running {
		t := &st.Tasks[ti]
		if !t.Started || t.Done {
			return fmt.Errorf("schedcore: state running task %d not in the running phase", ti)
		}
		used += t.Job.Cores
	}
	if st.Free != cores-used {
		return fmt.Errorf("schedcore: state free cores %d inconsistent with %d cores and %d in use", st.Free, cores, used)
	}
	return nil
}
