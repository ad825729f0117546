package sched

import (
	"math"
	"testing"
)

func view(r, n, s, w float64) JobView {
	return JobView{Runtime: r, Cores: n, Submit: s, Wait: w}
}

func TestFCFSOrdersByArrival(t *testing.T) {
	p := FCFS()
	if p.Score(view(1, 1, 100, 0)) >= p.Score(view(1e6, 256, 200, 0)) {
		t.Error("FCFS must prefer earlier arrivals regardless of size")
	}
	if p.TimeVarying() {
		t.Error("FCFS is not time-varying")
	}
}

func TestSPTOrdersByRuntime(t *testing.T) {
	p := SPT()
	if p.Score(view(10, 256, 999, 0)) >= p.Score(view(1000, 1, 0, 0)) {
		t.Error("SPT must prefer shorter tasks")
	}
}

func TestLPTIsReverseSPT(t *testing.T) {
	spt, lpt := SPT(), LPT()
	a, b := view(10, 1, 0, 0), view(500, 1, 0, 0)
	if (spt.Score(a) < spt.Score(b)) == (lpt.Score(a) < lpt.Score(b)) {
		t.Error("LPT must reverse SPT's preference")
	}
}

func TestSAFOrdersByArea(t *testing.T) {
	p := SAF()
	if p.Score(view(10, 10, 0, 0)) >= p.Score(view(1000, 10, 0, 0)) {
		t.Error("SAF must prefer smaller area")
	}
	if p.Score(view(10, 2, 0, 0)) >= p.Score(view(10, 200, 0, 0)) {
		t.Error("SAF must prefer fewer cores at equal runtime")
	}
}

func TestWFP3AgingAndShape(t *testing.T) {
	p := WFP3()
	if !p.TimeVarying() {
		t.Error("WFP3 depends on waiting time")
	}
	// Longer wait => lower (better) score.
	if p.Score(view(100, 4, 0, 1000)) >= p.Score(view(100, 4, 0, 10)) {
		t.Error("WFP3 must favor tasks that waited longer")
	}
	// At equal wait/runtime ratio, more cores => better score (anti-starvation
	// of large tasks, per Tang et al.).
	if p.Score(view(100, 64, 0, 500)) >= p.Score(view(100, 2, 0, 500)) {
		t.Error("WFP3 must favor larger tasks at equal w/r")
	}
	// Zero wait gives the neutral score 0.
	if got := p.Score(view(100, 64, 0, 0)); got != 0 {
		t.Errorf("WFP3 zero-wait score = %v, want 0", got)
	}
}

func TestUNICEFShape(t *testing.T) {
	p := UNICEF()
	// Favors long-waiting tasks.
	if p.Score(view(100, 4, 0, 1000)) >= p.Score(view(100, 4, 0, 10)) {
		t.Error("UNICEF must favor tasks that waited longer")
	}
	// Favors small tasks: smaller r·log2(n) divisor strengthens -w/x.
	if p.Score(view(10, 2, 0, 100)) >= p.Score(view(10000, 2, 0, 100)) {
		t.Error("UNICEF must favor shorter tasks at equal wait")
	}
	// Serial task does not blow up.
	if got := p.Score(view(10, 1, 0, 100)); math.IsInf(got, 0) || math.IsNaN(got) {
		t.Errorf("UNICEF serial score = %v, want finite", got)
	}
}

func TestLearnedPoliciesPreferSmallEarly(t *testing.T) {
	for _, p := range []Policy{F1(), F2(), F3(), F4()} {
		if p.TimeVarying() {
			t.Errorf("%s must not be time-varying", p.Name())
		}
		if p.Score(view(10, 4, 100, 0)) >= p.Score(view(10000, 4, 100, 0)) {
			t.Errorf("%s must prefer shorter tasks", p.Name())
		}
		if p.Score(view(10, 2, 100, 0)) >= p.Score(view(10, 200, 100, 0)) {
			t.Errorf("%s must prefer smaller tasks", p.Name())
		}
		if p.Score(view(10, 4, 10, 0)) >= p.Score(view(10, 4, 10000, 0)) {
			t.Errorf("%s must prefer earlier submissions", p.Name())
		}
	}
}

func TestF1DominatedBySubmitTime(t *testing.T) {
	// The paper stresses the large constant before log10(s): a modest
	// difference in arrival time outweighs a huge size difference.
	p := F1()
	early := view(27000, 256, 100, 0) // big but early
	late := view(10, 1, 10000, 0)     // tiny but much later
	if p.Score(early) >= p.Score(late) {
		t.Error("F1's log10(s) term must dominate for large arrival gaps")
	}
}

func TestFixedOrder(t *testing.T) {
	p := FixedOrder(map[int]int{7: 0, 3: 1, 9: 2})
	v := view(1, 1, 50, 0)
	if p.ScoreID(7, v) >= p.ScoreID(3, v) || p.ScoreID(3, v) >= p.ScoreID(9, v) {
		t.Error("FixedOrder must order by rank")
	}
	// Unknown IDs sort after known ones.
	if p.ScoreID(42, v) <= p.ScoreID(9, v) {
		t.Error("unknown IDs must sort last")
	}
}

func TestRegistryOrderMatchesFigures(t *testing.T) {
	want := []string{"FCFS", "WFP3", "UNICEF", "SPT", "F4", "F3", "F2", "F1"}
	got := Names(Registry())
	if len(got) != len(want) {
		t.Fatalf("registry has %d policies, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("registry[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"FCFS", "SPT", "WFP3", "UNICEF", "F1", "F2", "F3", "F4", "LPT", "SAF", "WFP", "UNI", "EASY"} {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("NOPE"); err == nil {
		t.Error("unknown name accepted")
	}
}
