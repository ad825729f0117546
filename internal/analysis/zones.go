package analysis

import "strings"

// Zone classifies a package directory by which discipline contracts
// apply to it. The zone table is the single source of truth the
// analyzers consult; DESIGN.md ("Static analysis & determinism
// contracts") documents the same table for humans.
type Zone uint8

const (
	// ZoneDeterministic marks packages inside the determinism boundary:
	// everything that runs between a seed and a metric. detlint,
	// maporder and seedlint apply. Covers the root package and all of
	// internal/ except the exemptions below.
	ZoneDeterministic Zone = 1 << iota

	// ZoneCmd marks user-facing binaries and examples: errlint applies
	// (dropped Write/Close/Flush/Encode errors silently corrupt
	// artifacts users trust).
	ZoneCmd

	// ZoneGoroutineBlessed marks the packages allowed to spawn
	// goroutines inside the determinism boundary: internal/runner (the
	// shared bounded pool) and internal/fed (the shard supervisor), both
	// carrying the same determinism contract — index-addressed results,
	// lowest-index error — which is what makes fan-out safe.
	ZoneGoroutineBlessed

	// ZoneDeadChecked marks the packages deadlint sweeps: all of
	// internal/ except the test-support packages below, which exist for
	// tests to call.
	ZoneDeadChecked
)

// Deterministic reports whether detlint/maporder/seedlint apply.
func (z Zone) Deterministic() bool { return z&ZoneDeterministic != 0 }

// Cmd reports whether errlint applies.
func (z Zone) Cmd() bool { return z&ZoneCmd != 0 }

// GoroutineBlessed reports whether the package may spawn goroutines
// despite being deterministic.
func (z Zone) GoroutineBlessed() bool { return z&ZoneGoroutineBlessed != 0 }

// DeadChecked reports whether deadlint applies.
func (z Zone) DeadChecked() bool { return z&ZoneDeadChecked != 0 }

// testSupport lists internal packages whose callers are tests by
// design, with the reason; deadlint skips them.
var testSupport = map[string]string{
	"internal/simref":  "slow reference engine and schedule auditors the differential tests compare against",
	"internal/simtest": "adversarial workload generators and the differential harness",
	"internal/faultfs": "fault-injecting filesystem the durable and crash suites run the store on",
}

// deterministicExempt lists internal packages outside the determinism
// boundary, with the reason. Everything else under internal/ — the
// scheduling core, the simulators, the trainer/regression stack, the
// workload generators, the adaptive loop — is inside it.
var deterministicExempt = map[string]string{
	// profiling's entire job is wall-clock side effects (pprof file
	// plumbing for cmd/ binaries); nothing on the seed->metric path
	// imports it.
	"internal/profiling": "pprof plumbing is inherently wall-clock",
	// analysis (this package) inspects source, not simulations; it
	// iterates maps from go/types whose order never reaches a
	// simulation output.
	"internal/analysis": "static analysis tooling, not on the seed->metric path",
}

// ZoneOf resolves the discipline zone for a package directory given
// relative to the module root ("" is the root package).
func ZoneOf(rel string) Zone {
	rel = strings.Trim(rel, "/")
	var z Zone
	switch {
	case rel == "":
		// The root gensched package: public Scenario/Grid/Runner API,
		// inside the determinism boundary.
		z |= ZoneDeterministic
	case rel == "internal" || strings.HasPrefix(rel, "internal/"):
		if _, exempt := deterministicExempt[rel]; !exempt {
			z |= ZoneDeterministic
		}
		if _, support := testSupport[rel]; !support {
			z |= ZoneDeadChecked
		}
	case rel == "cmd" || strings.HasPrefix(rel, "cmd/"),
		rel == "examples" || strings.HasPrefix(rel, "examples/"):
		z |= ZoneCmd
	}
	if rel == "internal/runner" {
		z |= ZoneGoroutineBlessed
	}
	// internal/fed is the federation layer: deterministic router, wire
	// codec, and N shard engines driven concurrently. It stays inside the
	// determinism boundary — placements are a pure function of the submit
	// stream and merged outputs are (clock, shard, seq)-ordered — and is
	// goroutine-blessed like internal/runner: its shard supervisor
	// (supervisor.go, the package's only spawn site) carries the same
	// shard-owned-state / lowest-index-error contract that keeps the
	// fan-out invisible in every output bit.
	if rel == "internal/fed" {
		z |= ZoneGoroutineBlessed
	}
	// internal/durable owns the daemon's on-disk state (snapshot + WAL).
	// It stays inside the determinism boundary — recovery replay must be
	// bit-reproducible, so no wall clocks or goroutines; fsync batching
	// is record-counted and checkpoint cadence rides the logical clock —
	// and is additionally errlint-checked like a cmd/ package, because a
	// dropped Write/Sync/Close error here silently voids the durability
	// contract the crash-recovery tests pin.
	if rel == "internal/durable" {
		z |= ZoneCmd
	}
	// internal/faultfs is the deterministic fault injector behind the
	// durable-store VFS seam. It stays inside the determinism boundary —
	// fault schedules are pure op-counting (a Plan is a function of seed
	// and stream via dist.Split, firing points are 1-based op indices),
	// so the same schedule trips the same fault at the same record in
	// every run — and is errlint-checked like internal/durable: it wraps
	// the same Write/Sync/Close surface, and a dropped error in the
	// pass-through path would make injected faults silently vanish.
	if rel == "internal/faultfs" {
		z |= ZoneCmd
	}
	// internal/telemetry is the instrumentation layer. It stays inside
	// the determinism boundary — every event rides the logical clock, so
	// no wall clocks, no goroutines, no map-order leaks into exports —
	// and is additionally errlint-checked like a cmd/ package: its
	// JSONL/Chrome-trace/exposition writers produce artifacts operators
	// trust, and a dropped Write error would silently truncate them.
	// (Its one wall-clock-adjacent type, Edge, is handled by a dedicated
	// detlint rule banning the Edge API from deterministic zones.)
	if rel == "internal/telemetry" {
		z |= ZoneCmd
	}
	return z
}
