package gensched

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/hpcsched/gensched/internal/sim"
)

// gridBase is a cheap base scenario for grid tests: a small machine,
// short sequences, saturated load.
func gridBase(t *testing.T, opts ...Option) *Scenario {
	t.Helper()
	base := []Option{
		WithCores(64),
		WithLublin(0.25, 1.0),
		WithSeed(11),
	}
	sc, err := NewScenario(append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestGridExpansion(t *testing.T) {
	g, err := NewGrid(gridBase(t),
		OverPolicies("FCFS", "SPT", "F1"),
		OverLoads(0.8, 1.05),
		OverSeeds(1, 2),
		OverBackfills(BackfillNone, BackfillEASY),
	)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := g.Size(), 3*2*2*2; got != want {
		t.Fatalf("Size = %d, want %d", got, want)
	}
	cells := g.Cells()
	if len(cells) != g.Size() {
		t.Fatalf("expanded %d cells, want %d", len(cells), g.Size())
	}
	// Policies vary innermost; the first two cells differ only in policy.
	if cells[0].Policy.Name() != "FCFS" || cells[1].Policy.Name() != "SPT" {
		t.Errorf("innermost axis order: %s, %s", cells[0].Policy.Name(), cells[1].Policy.Name())
	}
	if cells[0].Load != cells[1].Load || cells[0].Seed != cells[1].Seed {
		t.Error("policy neighbors do not share workload coordinates")
	}
	// Every cell is fully resolved and uniquely named.
	names := make(map[string]bool)
	for _, c := range cells {
		if c.Policy == nil || c.Source == nil {
			t.Fatal("unresolved cell")
		}
		if names[c.Name] {
			t.Fatalf("duplicate cell name %q", c.Name)
		}
		names[c.Name] = true
	}
}

func TestGridDefaultsFromBase(t *testing.T) {
	g, err := NewGrid(gridBase(t, WithPolicy("F1"), WithEASY()))
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != 1 {
		t.Fatalf("one-cell grid has size %d", g.Size())
	}
	c := g.Cells()[0]
	if c.Policy.Name() != "F1" || c.Backfill != BackfillEASY || c.Seed != 11 {
		t.Errorf("cell = %+v", c)
	}
}

func TestGridNeedsPolicy(t *testing.T) {
	if _, err := NewGrid(gridBase(t)); err == nil {
		t.Error("grid without any policy accepted")
	}
	if _, err := NewGrid(gridBase(t), OverPolicies("NOPE")); err == nil {
		t.Error("unknown policy name accepted")
	}
}

// TestRunnerDeterministicAcrossWorkers is the acceptance check: a
// 2-policy × 2-seed × 2-backfill grid must return bit-identical AVEbsld
// values for Workers=1 and Workers=8.
func TestRunnerDeterministicAcrossWorkers(t *testing.T) {
	mkGrid := func() *Grid {
		g, err := NewGrid(gridBase(t),
			OverPolicies("FCFS", "F1"),
			OverSeeds(1, 2),
			OverBackfills(BackfillNone, BackfillEASY),
		)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	a, err := (&Runner{Workers: 1}).Run(context.Background(), mkGrid())
	if err != nil {
		t.Fatal(err)
	}
	b, err := (&Runner{Workers: 8}).Run(context.Background(), mkGrid())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Cells) != 8 || len(b.Cells) != 8 {
		t.Fatalf("got %d and %d cells, want 8", len(a.Cells), len(b.Cells))
	}
	for i := range a.Cells {
		ca, cb := a.Cells[i], b.Cells[i]
		if ca.Scenario.Name != cb.Scenario.Name {
			t.Fatalf("cell %d ordering differs: %q vs %q", i, ca.Scenario.Name, cb.Scenario.Name)
		}
		if ca.AVEbsld != cb.AVEbsld {
			t.Errorf("cell %d (%s): AVEbsld %v (1 worker) != %v (8 workers)",
				i, ca.Scenario.Name, ca.AVEbsld, cb.AVEbsld)
		}
		for j := range ca.PerSeq {
			if ca.PerSeq[j] != cb.PerSeq[j] {
				t.Errorf("cell %d seq %d differs across worker counts", i, j)
			}
		}
	}
}

// TestRunnerDeterministicKeepSimsAcrossWorkers extends the determinism
// acceptance check to the full simulation payload: a grid spanning every
// backfill mode, run with KeepSims on, must be bit-identical between
// Workers=1 and Workers=8 down to every per-job statistic — and cells
// sharing a workload (paired policies) must schedule the exact same jobs.
func TestRunnerDeterministicKeepSimsAcrossWorkers(t *testing.T) {
	mkGrid := func() *Grid {
		g, err := NewGrid(gridBase(t, WithCheck()),
			OverPolicies("FCFS", "F1"),
			OverSeeds(1, 2),
			OverBackfills(BackfillNone, BackfillEASY, BackfillConservative),
		)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	a, err := (&Runner{Workers: 1, KeepSims: true}).Run(context.Background(), mkGrid())
	if err != nil {
		t.Fatal(err)
	}
	b, err := (&Runner{Workers: 8, KeepSims: true}).Run(context.Background(), mkGrid())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Cells) != 12 || len(b.Cells) != 12 {
		t.Fatalf("got %d and %d cells, want 12", len(a.Cells), len(b.Cells))
	}
	for i := range a.Cells {
		ca, cb := a.Cells[i], b.Cells[i]
		if ca.Scenario.Name != cb.Scenario.Name || ca.WorkloadSeed != cb.WorkloadSeed {
			t.Fatalf("cell %d identity differs across worker counts", i)
		}
		if ca.AVEbsld != cb.AVEbsld || !reflect.DeepEqual(ca.PerSeq, cb.PerSeq) {
			t.Errorf("cell %d (%s): aggregates differ across worker counts", i, ca.Scenario.Name)
		}
		if len(ca.Sims) == 0 || len(ca.Sims) != len(cb.Sims) {
			t.Fatalf("cell %d: KeepSims payload missing (%d vs %d)", i, len(ca.Sims), len(cb.Sims))
		}
		for j := range ca.Sims {
			if !reflect.DeepEqual(ca.Sims[j], cb.Sims[j]) {
				t.Errorf("cell %d seq %d: full simulation results differ across worker counts", i, j)
			}
		}
	}
	// Paired-workload reuse: cells sharing (seed axis) must have scheduled
	// the exact same job sequences, job for job, regardless of policy or
	// backfill mode.
	bySeed := make(map[uint64]*CellResult)
	for _, c := range a.Cells {
		first, ok := bySeed[c.WorkloadSeed]
		if !ok {
			bySeed[c.WorkloadSeed] = c
			continue
		}
		for j := range c.Sims {
			fs, cs := first.Sims[j].Stats, c.Sims[j].Stats
			if len(fs) != len(cs) {
				t.Fatalf("paired cells %s vs %s: sequence %d sizes differ", first.Scenario.Name, c.Scenario.Name, j)
			}
			for k := range fs {
				if fs[k].Job != cs[k].Job {
					t.Fatalf("paired cells %s vs %s: job %d differs — workload not reused",
						first.Scenario.Name, c.Scenario.Name, k)
				}
			}
		}
	}
	if len(bySeed) != 2 {
		t.Fatalf("expected 2 distinct workloads (one per seed), got %d", len(bySeed))
	}
}

// TestRunnerPairedWorkloads verifies the paired-comparison property:
// cells differing only in policy or backfill mode share the workload
// seed, while seed-axis neighbors do not.
func TestRunnerPairedWorkloads(t *testing.T) {
	g, err := NewGrid(gridBase(t),
		OverPolicies("FCFS", "F1"),
		OverSeeds(1, 2),
		OverBackfills(BackfillNone, BackfillEASY),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&Runner{}).Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	bySeed := make(map[uint64]map[uint64]bool) // seed axis value -> workload seeds
	for _, c := range res.Cells {
		m := bySeed[c.Scenario.Seed]
		if m == nil {
			m = make(map[uint64]bool)
			bySeed[c.Scenario.Seed] = m
		}
		m[c.WorkloadSeed] = true
	}
	if len(bySeed) != 2 {
		t.Fatalf("got %d seed groups", len(bySeed))
	}
	for seed, m := range bySeed {
		if len(m) != 1 {
			t.Errorf("seed %d: %d distinct workload seeds across policy/backfill cells, want 1", seed, len(m))
		}
	}
	// Cells 0 and 4 differ in the seed axis (2 backfills × 2 policies per
	// seed); their workloads must be independent draws.
	if res.Cells[0].WorkloadSeed == res.Cells[4].WorkloadSeed {
		t.Error("different seed-axis values share a workload seed")
	}
}

// TestRunnerGoldenVersusSimulate pins the Runner to the batch simulator
// it drives: a fixed-jobs grid cell must reproduce a direct simulation of
// the same jobs exactly.
func TestRunnerGoldenVersusSimulate(t *testing.T) {
	trace := lublinTrace(t, 64, 1, 1.0, 5)
	for _, mode := range []BackfillMode{BackfillNone, BackfillEASY} {
		direct, err := sim.Run(sim.Platform{Cores: 64}, trace.Jobs, SimOptions{
			Policy:   MustPolicy("F1"),
			Backfill: mode,
		})
		if err != nil {
			t.Fatal(err)
		}
		sc, err := NewScenario(
			WithTrace(trace),
			WithPolicy("F1"),
			WithBackfill(mode),
		)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sc.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(res.PerSeq) != 1 || res.PerSeq[0] != direct.AVEbsld {
			t.Errorf("mode %v: grid cell AVEbsld %v != direct simulation %v",
				mode, res.PerSeq[0], direct.AVEbsld)
		}
	}
}

func TestRunnerContextCancellation(t *testing.T) {
	g, err := NewGrid(gridBase(t), OverPolicies("FCFS", "WFP3", "UNICEF", "SPT", "F1"), OverSeeds(1, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var done atomic.Int32
	r := &Runner{Workers: 2, OnResult: func(*CellResult) {
		if done.Add(1) == 2 {
			cancel() // cancel mid-grid, after two cells completed
		}
	}}
	res, err := r.Run(ctx, g)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Error("cancelled run returned partial results")
	}
}

func TestRunnerStreamsEveryCell(t *testing.T) {
	g, err := NewGrid(gridBase(t), OverPolicies("FCFS", "F1"), OverBackfills(BackfillNone, BackfillEASY))
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	r := &Runner{OnResult: func(c *CellResult) { seen[c.Index] = true }}
	res, err := r.Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(res.Cells) {
		t.Errorf("streamed %d cells, want %d", len(seen), len(res.Cells))
	}
	for i, c := range res.Cells {
		if c.Index != i {
			t.Errorf("cell %d has index %d", i, c.Index)
		}
		if !seen[i] {
			t.Errorf("cell %d never streamed", i)
		}
	}
}

func TestWriteCSVUnequalSequenceCounts(t *testing.T) {
	job := func(id int) Job { return Job{ID: id, Submit: 0, Runtime: 10, Estimate: 10, Cores: 1} }
	short := FixedWindows("short", 4, [][]Job{{job(1)}})
	long := FixedWindows("long", 4, [][]Job{{job(1)}, {job(2)}, {job(3)}})
	sc, err := NewScenario(WithPolicy("FCFS"))
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGrid(sc, OverSources(short, long))
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&Runner{}).Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d CSV lines:\n%s", len(lines), buf.String())
	}
	// Header must span the longest cell and every row must have the
	// same number of fields.
	want := strings.Count(lines[0], ",")
	if want != 3 {
		t.Errorf("header has %d sequence columns, want 3: %q", want, lines[0])
	}
	for _, line := range lines[1:] {
		if got := strings.Count(line, ","); got != want {
			t.Errorf("ragged CSV row %q: %d fields, header has %d", line, got, want)
		}
	}
}

func TestGridResultFormat(t *testing.T) {
	g, err := NewGrid(gridBase(t), OverPolicies("FCFS", "F1"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&Runner{}).Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	out := res.Format()
	for _, want := range []string{"AVEbsld", "FCFS", "F1"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format output missing %q:\n%s", want, out)
		}
	}
}
