// Package fed is the federation layer: N shard schedulers (one
// incremental engine each, per-shard logical clocks and seeds), a
// deterministic router that places jobs across them, and a compact
// binary wire codec for the hot submit/complete path — the scale-out
// story for the online scheduling subsystem, the way a production
// service outgrows one event loop.
//
// # Determinism contract
//
// Everything here is a pure function of the submit stream. The router
// places jobs by consistent hashing over per-shard seeds derived with
// dist.Split, with a least-loaded fallback driven by a fluid backlog
// model — no queue inspection, no timing, no randomness — so the same
// job stream yields the same placements for any worker count or
// interleaving of shard execution. Each shard then schedules its
// substream exactly as a standalone scheduler would, and merged outputs
// (traces, start notifications, aggregates) are ordered by the total
// order (clock, shard, seq). The differential tests pin that a
// concurrent federated replay is bit-identical to a sequential
// single-engine replay of each routed substream, for any shard count.
//
// fed is inside the determinism boundary (genschedvet's zone table) and
// is goroutine-blessed like internal/runner: the ONLY goroutine spawn
// site is the shard supervisor (supervisor.go), whose contract —
// shard-owned state, index-addressed results, lowest-shard error — is
// what keeps the fan-out invisible in every output.
package fed

import (
	"fmt"
	"sort"

	"github.com/hpcsched/gensched/internal/dist"
	"github.com/hpcsched/gensched/internal/workload"
)

// vnodes is the number of virtual ring points per shard. 64 keeps the
// hash ring balanced to a few percent across shard counts while the
// whole ring still fits in a couple of cache lines per shard.
const vnodes = 64

// defaultStealFactor is the load-gap threshold, in units of the routed
// job's own occupancy, beyond which the least-loaded shard steals the
// job from its hash-primary shard.
const defaultStealFactor = 1.0

// ringPoint is one virtual node on the consistent-hash ring.
type ringPoint struct {
	hash  uint64
	shard int
}

// Router deterministically places jobs on shards. Placement is
// consistent hashing by job ID over per-shard seeds, with a least-loaded
// fallback: each shard carries a fluid-model backlog (a virtual
// completion time advanced by every placement's perceived occupancy),
// and when the hash-primary's backlog exceeds the least-loaded shard's
// by more than the job's own occupancy times StealFactor, the
// least-loaded shard steals the job — backfill slack migrating to where
// it exists. Both signals are functions of the placement stream alone,
// so placements never depend on shard execution order.
//
// A Router is single-writer state: the federation serializes Place and
// completion lookups under its own lock, and the replay path routes the
// whole stream single-threaded before any shard runs.
type Router struct {
	shards      int
	shardCores  int
	useEst      bool
	stealFactor float64

	ring       []ringPoint
	vt         []float64   // per-shard virtual completion time (fluid backlog)
	placed     map[int]int // active job ID → shard
	stolenOnto []int       // per-shard count of placements diverted onto it
	quar       []bool      // quarantined shards: no new placements
}

// ShardDownError reports a placement or lookup that targets a
// quarantined shard. It maps to 503 + Retry-After at the HTTP layer and
// to a retryable Err frame on the binary protocol: the shard may return
// after an operator restarts the daemon, so the client should back off
// and retry rather than give up.
type ShardDownError struct{ Shard int }

func (e *ShardDownError) Error() string {
	return fmt.Sprintf("fed: shard %d is quarantined (durable store failed)", e.Shard)
}

// NewRouter builds a router for the given shard count and per-shard
// machine size. seed derives the per-shard ring points via dist.Split,
// so distinct federation seeds lay out unrelated rings. useEstimates
// selects which runtime the fluid load model perceives, mirroring the
// scheduling options. stealFactor <= 0 means the default 1.0.
func NewRouter(shards, shardCores int, seed uint64, useEstimates bool, stealFactor float64) (*Router, error) {
	if shards < 1 {
		return nil, fmt.Errorf("fed: need at least one shard, got %d", shards)
	}
	if shardCores < 1 {
		return nil, fmt.Errorf("fed: shards need at least one core, got %d", shardCores)
	}
	if stealFactor <= 0 {
		stealFactor = defaultStealFactor
	}
	r := &Router{
		shards:      shards,
		shardCores:  shardCores,
		useEst:      useEstimates,
		stealFactor: stealFactor,
		ring:        make([]ringPoint, 0, shards*vnodes),
		vt:          make([]float64, shards),
		placed:      make(map[int]int),
		stolenOnto:  make([]int, shards),
		quar:        make([]bool, shards),
	}
	for s := 0; s < shards; s++ {
		shardSeed := dist.Split(seed, uint64(s))
		for v := 0; v < vnodes; v++ {
			r.ring = append(r.ring, ringPoint{hash: dist.Split(shardSeed, uint64(v)), shard: s})
		}
	}
	// Sort by hash; ties (cryptographically unlikely) break by shard so
	// the ring order is total and deterministic.
	sort.Slice(r.ring, func(i, j int) bool {
		if r.ring[i].hash != r.ring[j].hash {
			return r.ring[i].hash < r.ring[j].hash
		}
		return r.ring[i].shard < r.ring[j].shard
	})
	return r, nil
}

// Stolen returns how many placements were diverted off their
// hash-primary shard by the load fallback.
func (r *Router) Stolen() int {
	total := 0
	for _, n := range r.stolenOnto {
		total += n
	}
	return total
}

// StolenOnto returns the diversions onto one shard — the per-shard
// attribution a shard's durable snapshot carries.
func (r *Router) StolenOnto(s int) int { return r.stolenOnto[s] }

// VT returns the fluid-model virtual completion time of one shard, for
// the shard's durable snapshot.
func (r *Router) VT(s int) float64 { return r.vt[s] }

// RestoreShard seeds one shard's routing state from its recovered
// snapshot: the fluid clock and the steal attribution as of the
// snapshot. Records after the snapshot re-derive the rest via Adopt.
func (r *Router) RestoreShard(s int, vt float64, stolenOnto int) {
	r.vt[s] = vt
	r.stolenOnto[s] = stolenOnto
}

// Quarantine marks a shard down: Place never targets it again and
// lookups of jobs on it report ShardDownError. There is no un-quarantine
// short of a restart — the underlying store is latched broken.
func (r *Router) Quarantine(s int) { r.quar[s] = true }

// Quarantined reports whether a shard is down.
func (r *Router) Quarantined(s int) bool { return r.quar[s] }

// Healthy returns how many shards accept placements.
func (r *Router) Healthy() int {
	n := 0
	for _, q := range r.quar {
		if !q {
			n++
		}
	}
	return n
}

// Primary returns the consistent-hash shard for a job ID, ignoring load
// and quarantine — the pure ring lookup. Recovery uses it to re-derive
// whether a journaled placement was a steal.
func (r *Router) Primary(id int) int { return r.primary(id) }

// primary returns the consistent-hash shard for a job ID: the first ring
// point at or clockwise-after the ID's hash.
func (r *Router) primary(id int) int {
	h := dist.Split(uint64(int64(id)), 0)
	i := sort.Search(len(r.ring), func(i int) bool { return r.ring[i].hash >= h })
	if i == len(r.ring) {
		i = 0
	}
	return r.ring[i].shard
}

// Occupancy exposes the fluid model's perceived occupancy of a job — a
// pure function of the router's construction parameters — for the
// shard-local durable mirrors that track the fluid clock in journal
// order.
func (r *Router) Occupancy(j workload.Job) float64 { return r.occupancy(j) }

// occupancy is the fluid model's perceived whole-shard occupancy of a
// job, in seconds: perceived runtime scaled by the fraction of the shard
// the job holds.
func (r *Router) occupancy(j workload.Job) float64 {
	p := j.Runtime
	if r.useEst && j.Estimate > 0 {
		p = j.Estimate
	}
	return p * float64(j.Cores) / float64(r.shardCores)
}

// load is the shard's modeled backlog at time now: how far its virtual
// completion time runs ahead of the clock.
func (r *Router) load(s int, now float64) float64 {
	if l := r.vt[s] - now; l > 0 {
		return l
	}
	return 0
}

// Place routes one job at time now and records the placement. The
// decision depends only on the router's construction parameters and the
// stream of prior Place calls. A job ID already actively placed is
// rejected — the placement map is part of the deterministic state and
// must not be corrupted by a duplicate.
func (r *Router) Place(now float64, j workload.Job) (int, error) {
	if _, dup := r.placed[j.ID]; dup {
		return 0, fmt.Errorf("fed: job ID %d is already active", j.ID)
	}
	s := r.primary(j.ID)
	// A quarantined primary refuses rather than diverts: healthy shards
	// must see exactly the substream they would have seen in a federation
	// that never received the down shard's traffic, so degraded-mode
	// output stays a deterministic function of the surviving stream.
	if r.quar[s] {
		return 0, &ShardDownError{Shard: s}
	}
	occ := r.occupancy(j)
	if r.shards > 1 {
		// Least-loaded fallback among healthy shards: lowest backlog,
		// ties to the lowest shard. With nothing quarantined this scan is
		// exactly the pre-degradation one, so placements are unchanged.
		min := -1
		for c := 0; c < r.shards; c++ {
			if r.quar[c] {
				continue
			}
			if min < 0 || r.load(c, now) < r.load(min, now) {
				min = c
			}
		}
		if min != s && r.load(s, now)-r.load(min, now) > occ*r.stealFactor {
			s = min
			r.stolenOnto[s]++
		}
	}
	if r.vt[s] < now {
		r.vt[s] = now
	}
	r.vt[s] += occ
	r.placed[j.ID] = s
	return s, nil
}

// Adopt replays one journaled placement during recovery: the job landed
// on shard s (its journal says so), the fluid clock advances exactly as
// the original Place did, and the steal attribution is re-derived from
// the ring — a placement off its hash-primary was a steal.
func (r *Router) Adopt(now float64, j workload.Job, s int) error {
	if _, dup := r.placed[j.ID]; dup {
		return fmt.Errorf("fed: job ID %d is already active", j.ID)
	}
	if s != r.primary(j.ID) {
		r.stolenOnto[s]++
	}
	if r.vt[s] < now {
		r.vt[s] = now
	}
	r.vt[s] += r.occupancy(j)
	r.placed[j.ID] = s
	return nil
}

// AdoptActive registers a snapshot-restored active job's placement
// without touching the fluid clock or steal counts — the snapshot's
// FedState already accounts for it.
func (r *Router) AdoptActive(id, s int) error {
	if _, dup := r.placed[id]; dup {
		return fmt.Errorf("fed: job ID %d is already active", id)
	}
	r.placed[id] = s
	return nil
}

// Locate returns the shard an active job was placed on.
func (r *Router) Locate(id int) (int, bool) {
	s, ok := r.placed[id]
	return s, ok
}

// Release forgets a completed job's placement.
func (r *Router) Release(id int) { delete(r.placed, id) }
