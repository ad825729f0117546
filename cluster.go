package gensched

import (
	"sync"

	"github.com/hpcsched/gensched/internal/adaptive"
	"github.com/hpcsched/gensched/internal/online"
)

// Cluster is the public face of the online scheduling subsystem
// (internal/online): a live cluster that schedules jobs as they stream in,
// instead of requiring the whole workload up front the way a Scenario does.
// It maintains the waiting queue, the running set and the backfill
// structures incrementally across calls, and supports hot-swapping the
// queue policy without dropping state. examples/onlinesched drives one
// directly. cmd/schedd does not serve a Cluster: it serves an
// internal/fed federation, whose shards run the same online engine.
//
// The streaming contract mirrors a batch scheduler's event loop: Submit
// and Complete record what happened at the current instant, and the
// scheduling pass for the instant runs on Flush — or automatically when
// AdvanceTo moves the clock — so all events of an instant are scheduled
// together. A trace streamed this way schedules bit-identically to the
// batch simulator with the same options (the property the online
// differential tests pin).
//
// All methods are safe for concurrent use. Slices of JobStart returned by
// Flush and AdvanceTo are scratch, valid until the next call on the
// Cluster; copy them to retain.
type Cluster struct {
	mu    sync.Mutex
	s     *online.Scheduler
	cores int
	cfg   ClusterConfig

	// pilot is the attached adaptive retraining loop, if any (see
	// Autopilot): Submit feeds its observation window and AdvanceTo runs
	// its due adaptation rounds under the same lock, so loop decisions
	// are serialized with the stream that causes them. A loop failure
	// detaches the pilot and is reported by AdaptiveLoop.Err — it never
	// fails the scheduling call that happened to trigger the round.
	pilot    *adaptive.Controller
	pilotErr error
}

// ClusterConfig configures a Cluster. The scheduling fields mean exactly
// what they mean in SimOptions.
type ClusterConfig struct {
	// Policy orders the waiting queue (required); swap it later with
	// SwapPolicy.
	Policy Policy
	// UseEstimates makes every scheduling decision see the user estimate
	// instead of the submitted runtime.
	UseEstimates bool
	// Backfill selects the backfilling algorithm (default none).
	Backfill BackfillMode
	// BackfillOrder optionally reorders EASY backfill candidates.
	BackfillOrder Policy
	// Tau is the bounded-slowdown constant for live metrics (0 = default).
	Tau float64
	// Check enables runtime invariant checking (see Err).
	Check bool
}

// JobStart notifies the caller that a job began running.
type JobStart = online.Start

// ClusterStatus is a point-in-time snapshot of the cluster.
type ClusterStatus = online.Status

// ClusterMetrics aggregates the schedule so far over completed jobs.
type ClusterMetrics = online.Metrics

// NewCluster builds an empty online cluster with the given core count.
// The clock starts at zero.
func NewCluster(cores int, cfg ClusterConfig) (*Cluster, error) {
	s, err := online.New(cores, online.Options{
		Policy:        cfg.Policy,
		UseEstimates:  cfg.UseEstimates,
		Backfill:      cfg.Backfill,
		BackfillOrder: cfg.BackfillOrder,
		Tau:           cfg.Tau,
		Check:         cfg.Check,
	})
	if err != nil {
		return nil, err
	}
	return &Cluster{s: s, cores: cores, cfg: cfg}, nil
}

// Clock returns the cluster's current time.
func (c *Cluster) Clock() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.s.Clock()
}

// Submit records the arrival of a job at the current instant. A zero
// Submit field on a nonzero clock is stamped with the current time. The
// scheduling pass is deferred to the next Flush or AdvanceTo.
func (c *Cluster) Submit(j Job) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.s.Submit(j); err != nil {
		return err
	}
	if c.pilot != nil {
		if j.Submit == 0 {
			j.Submit = c.s.Clock() // the stamp Submit applied
		}
		c.pilot.Observe(j)
	}
	return nil
}

// Complete reports that a running job finished at the current instant.
func (c *Cluster) Complete(id int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.s.Complete(id)
}

// Flush runs the pending scheduling pass for the current instant, if any,
// and returns the jobs it started.
func (c *Cluster) Flush() []JobStart {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.s.Flush()
}

// AdvanceTo moves the clock forward to t, first flushing any pending pass
// (whose starts are returned). Going backward is an error. With an
// Autopilot attached, any adaptation round due at t runs here, after the
// clock has moved, so a promoted policy governs the passes from t on. A
// failing round never fails the advance — the clock has already moved
// and the starts are real; the loop detaches instead and the failure is
// reported by AdaptiveLoop.Err.
func (c *Cluster) AdvanceTo(t float64) ([]JobStart, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	starts, err := c.s.AdvanceTo(t)
	if err != nil {
		return starts, err
	}
	if c.pilot != nil {
		d, err := c.pilot.Tick(t, c.s.Policy())
		if err == nil && d != nil && d.Promoted {
			err = c.s.SetPolicy(d.Policy)
		}
		if err != nil {
			c.pilotErr = err
			c.pilot = nil // a broken loop must not re-fail every advance
		}
	}
	return starts, nil
}

// SwapPolicy hot-swaps the queue-ordering policy without dropping any
// queued or running state; it governs every scheduling pass from the next
// one on.
func (c *Cluster) SwapPolicy(p Policy) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.s.SetPolicy(p)
}

// Status snapshots the cluster state.
func (c *Cluster) Status() ClusterStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.s.Status()
}

// Metrics aggregates the schedule so far (completed jobs).
func (c *Cluster) Metrics() ClusterMetrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.s.Metrics()
}

// Err returns the first invariant violation recorded under
// ClusterConfig.Check, or nil.
func (c *Cluster) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.s.Err()
}

// ReplayTrace streams a whole workload through a fresh online cluster —
// each job submitted at its submit time, completed when its runtime has
// elapsed after the start the scheduler chose, with optional policy
// hot-swaps along the way — and returns the same Result the batch
// simulator produces. Without swaps the Result is bit-identical to a
// batch simulation with the same options; with swaps it is the schedule
// a live operator would have obtained flipping policies mid-stream.
func ReplayTrace(cores int, jobs []Job, cfg ClusterConfig, swaps ...PolicySwap) (*SimResult, error) {
	rs := make([]online.Swap, len(swaps))
	for i, s := range swaps {
		rs[i] = online.Swap{At: s.At, Policy: s.Policy}
	}
	return online.Replay(cores, jobs, online.ReplayOptions{
		Policy:        cfg.Policy,
		UseEstimates:  cfg.UseEstimates,
		Backfill:      cfg.Backfill,
		BackfillOrder: cfg.BackfillOrder,
		Tau:           cfg.Tau,
		Check:         cfg.Check,
		Swaps:         rs,
	})
}

// PolicySwap schedules a policy hot-swap at a point in a ReplayTrace
// stream.
type PolicySwap struct {
	At     float64
	Policy Policy
}
