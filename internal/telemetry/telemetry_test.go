package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

// TestBucketBoundaries pins the exact power-of-two bucketing: an upper
// bound is inclusive, the next representable value above it belongs to
// the next bucket, and the degenerate inputs (zero, negative, NaN, Inf)
// land where documented.
func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		v    float64
		want int
	}{
		{0, 0},
		{-3, 0},
		{math.NaN(), 0},
		{math.Ldexp(1, histMinExp), 0}, // 2^-20: inclusive bound of bucket 0
		{math.Nextafter(math.Ldexp(1, histMinExp), 2), 1}, // just above it
		{math.Ldexp(1, histMinExp-5), 0},                  // below the smallest bound
		{1, 20},                                           // 2^0 → bucket with upper bound 1
		{math.Nextafter(1, 2), 21},                        // just above 1
		{0.75, 20},                                        // (0.5, 1]
		{0.5, 19},                                         // exactly 2^-1
		{1024, 30},                                        // 2^10
		{math.Ldexp(1, histMaxExp), HistBuckets - 2},                              // largest finite bound, inclusive
		{math.Nextafter(math.Ldexp(1, histMaxExp), math.Inf(1)), HistBuckets - 1}, // overflows
		{math.Inf(1), HistBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%g) = %d, want %d", c.v, got, c.want)
		}
	}
	// Every finite bucket's upper bound must classify into its own
	// bucket (inclusive upper bounds), and the value just above into the
	// next.
	for i := 0; i < HistBuckets-1; i++ {
		ub := BucketUpper(i)
		if got := bucketIndex(ub); got != i {
			t.Errorf("bucketIndex(BucketUpper(%d)=%g) = %d, want %d", i, ub, got, i)
		}
		if got := bucketIndex(math.Nextafter(ub, math.Inf(1))); got != i+1 {
			t.Errorf("bucketIndex(just above BucketUpper(%d)) = %d, want %d", i, got, i+1)
		}
	}
	if !math.IsInf(BucketUpper(HistBuckets-1), 1) {
		t.Errorf("last bucket upper bound = %g, want +Inf", BucketUpper(HistBuckets-1))
	}
}

func TestHistogramObserveAndSum(t *testing.T) {
	var h Histogram
	for _, v := range []float64{0.25, 0.25, 1, 30, 1e6} {
		h.Observe(v)
	}
	if got := total(h.Snapshot()); got != 5 {
		t.Fatalf("Count = %d, want 5", got)
	}
	if got, want := h.Sum(), 0.25+0.25+1+30+1e6; got != want {
		t.Fatalf("Sum = %g, want %g", got, want)
	}
	// Non-finite observations count but do not poison the sum.
	h.Observe(math.Inf(1))
	h.Observe(math.NaN())
	if got := total(h.Snapshot()); got != 7 {
		t.Fatalf("Count after non-finite = %d, want 7", got)
	}
	if got := h.Sum(); math.IsNaN(got) || math.IsInf(got, 0) {
		t.Fatalf("Sum poisoned by non-finite observation: %g", got)
	}
}

// TestHistogramMerge pins that merging is exact: the merged histogram
// equals one that observed both streams directly, bucket for bucket and
// in the sum.
func TestHistogramMerge(t *testing.T) {
	a, b, both := &Histogram{}, &Histogram{}, &Histogram{}
	va := []float64{0.001, 3, 3, 900, 1e9}
	vb := []float64{0.5, 64, 1e-7, 7e12}
	for _, v := range va {
		a.Observe(v)
		both.Observe(v)
	}
	for _, v := range vb {
		b.Observe(v)
		both.Observe(v)
	}
	a.Merge(b)
	sa, sb := a.Snapshot(), both.Snapshot()
	if sa.Counts != sb.Counts {
		t.Fatalf("merged buckets diverge:\n merged: %v\n direct: %v", sa.Counts, sb.Counts)
	}
	if total(sa) != uint64(len(va)+len(vb)) {
		t.Fatalf("merged Total = %d, want %d", total(sa), len(va)+len(vb))
	}
}

func TestTracerRingWrap(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Record(Event{Time: float64(i), Kind: EvSubmit, Job: int64(i)})
	}
	if got := tr.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if got := tr.Total(); got != 10 {
		t.Fatalf("Total = %d, want 10", got)
	}
	if got := tr.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6", got)
	}
	evs := tr.Events(1, 0)
	if len(evs) != 4 {
		t.Fatalf("Events len = %d, want 4", len(evs))
	}
	for i, e := range evs {
		if want := uint64(6 + i); e.Seq != want {
			t.Errorf("event %d: Seq = %d, want %d (oldest-first after wrap)", i, e.Seq, want)
		}
	}
	// Sampling keeps multiples of K; limit caps to the most recent.
	evs = tr.Events(2, 0)
	for _, e := range evs {
		if e.Seq%2 != 0 {
			t.Errorf("sample=2 returned Seq %d", e.Seq)
		}
	}
	evs = tr.Events(1, 2)
	if len(evs) != 2 || evs[0].Seq != 8 || evs[1].Seq != 9 {
		t.Errorf("limit=2 returned %+v, want seqs 8,9", evs)
	}
}

// TestTracerJobKindPacking pins the slot packing: the kind and the
// signed job share one word (meta = job<<8 | kind), so every job value
// within the documented 56-bit range — including negative ones — must
// round-trip exactly alongside its kind.
func TestTracerJobKindPacking(t *testing.T) {
	jobs := []int64{0, 1, -1, 42, -42, 1<<55 - 1, -(1 << 55)}
	kinds := []EventKind{EvSubmit, EvComplete, EvWALCheckpoint}
	tr := NewTracer(len(jobs) * len(kinds))
	for _, j := range jobs {
		for _, k := range kinds {
			tr.Record(Event{Time: 1, Kind: k, Job: j})
		}
	}
	evs := tr.Events(1, 0)
	if len(evs) != len(jobs)*len(kinds) {
		t.Fatalf("Events len = %d, want %d", len(evs), len(jobs)*len(kinds))
	}
	for i, e := range evs {
		wantJob, wantKind := jobs[i/len(kinds)], kinds[i%len(kinds)]
		if e.Job != wantJob || e.Kind != wantKind {
			t.Errorf("event %d: (job, kind) = (%d, %v), want (%d, %v)", i, e.Job, e.Kind, wantJob, wantKind)
		}
	}
}

// TestJSONLDeterministic pins the wire format: identical event streams
// render to identical bytes, floats use shortest round-trip formatting,
// and non-finite payloads render as null.
func TestJSONLDeterministic(t *testing.T) {
	build := func() *Tracer {
		tr := NewTracer(16)
		tr.Record(Event{Time: 0, Kind: EvSubmit, Job: 1, A: 0})
		tr.Record(Event{Time: 1.5, Kind: EvStart, Job: 1, A: 1.5})
		tr.Record(Event{Time: 3600, Kind: EvAdapt, Job: 1, A: 1, B: math.Inf(1), Str: "promoted"})
		tr.Record(Event{Time: 7200, Kind: EvComplete, Job: 1, A: 33.25, B: 2.5})
		return tr
	}
	var b1, b2 bytes.Buffer
	if err := WriteEventsJSONL(&b1, build().Events(1, 0)); err != nil {
		t.Fatal(err)
	}
	if err := WriteEventsJSONL(&b2, build().Events(1, 0)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatalf("identical streams rendered differently:\n%s\n---\n%s", b1.Bytes(), b2.Bytes())
	}
	lines := strings.Split(strings.TrimSpace(b1.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4:\n%s", len(lines), b1.String())
	}
	for _, ln := range lines {
		var obj map[string]any
		if err := json.Unmarshal([]byte(ln), &obj); err != nil {
			t.Fatalf("line is not valid JSON: %q: %v", ln, err)
		}
	}
	if !strings.Contains(lines[2], `"kind":"adapt"`) || strings.Contains(lines[2], "Inf") {
		t.Fatalf("adapt line must carry kind and render +Inf as null: %q", lines[2])
	}
}

func TestChromeTraceValidJSON(t *testing.T) {
	tr := NewTracer(8)
	tr.Record(Event{Time: 1, Kind: EvStart, Job: 7, A: 0.5})
	tr.Record(Event{Time: 2, Kind: EvWALSync, A: 3})
	var buf bytes.Buffer
	if err := WriteEventsChrome(&buf, tr.Events(1, 0)); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, buf.Bytes())
	}
	if len(doc.TraceEvents) != 2 || doc.TraceEvents[0].Name != "start" || doc.TraceEvents[0].Ph != "i" {
		t.Fatalf("unexpected trace events: %+v", doc.TraceEvents)
	}
	if doc.TraceEvents[0].Ts != 1e6 {
		t.Fatalf("logical seconds must map to microseconds: ts = %g", doc.TraceEvents[0].Ts)
	}
}

// TestNilSink pins the disabled-telemetry contract: every hook on a nil
// sink is a no-op, not a panic.
func TestNilSink(t *testing.T) {
	var s *Sink
	s.JobSubmitted(0, 1)
	s.JobStarted(1, 1, 1, true)
	s.JobCompleted(2, 1, 1, 1)
	s.Pass(2, 3)
	s.PolicySwapped(2, "F1")
	s.AdaptRound(3, 1, "promoted", 0.5, true)
	s.WALAppend(3, 0, 64)
	s.WALSync(3, 1)
	s.WALCheckpoint(3, 5, 128)
	var e *Edge
	e.Observe("submit", 0.1)
	var w ExpositionWriter
	e.WriteExposition(&w)
	WriteSink(&w, nil)
	if len(w.Bytes()) != 0 {
		t.Fatalf("nil sink/edge rendered %d bytes", len(w.Bytes()))
	}
}

// TestConcurrentScrape exercises the documented concurrency discipline
// under -race: the Sink is plain single-writer state, so the writer (a
// stand-in for the scheduler thread) and the scrapers synchronize on
// one shared mutex — exactly how the daemon guards the sink with its
// server mutex. The Edge, by contrast, is hammered from several
// goroutines with NO external lock, because its contract is internal
// locking. The scrape checks also pin internal monotonicity: a
// snapshot's +Inf cumulative always equals its own total.
func TestConcurrentScrape(t *testing.T) {
	s := NewSink(256)
	e := NewEdge("submit", "status")
	var mu sync.Mutex // plays the daemon's server mutex
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			now := float64(i)
			mu.Lock()
			s.JobSubmitted(now, i)
			s.JobStarted(now, i, float64(i%97), i%3 == 0)
			s.JobCompleted(now, i, float64(i%97), 1+float64(i%11))
			s.Pass(now, i%13)
			s.WALAppend(now, uint64(i), 64)
			mu.Unlock()
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				e.Observe("submit", float64(i%7)/100)
				e.Observe("status", 0.001)
			}
		}(w)
	}
	for scrape := 0; scrape < 50; scrape++ {
		mu.Lock()
		snap := s.Wait.Snapshot()
		var ew ExpositionWriter
		WriteSink(&ew, s)
		var buf bytes.Buffer
		err := WriteEventsJSONL(&buf, s.Trace.Events(4, 32))
		mu.Unlock()
		var cum uint64
		for _, c := range snap.Counts {
			cum += c
		}
		if cum != total(snap) {
			t.Errorf("scrape %d: cumulative %d != total %d", scrape, cum, total(snap))
		}
		if len(ew.Bytes()) == 0 {
			t.Errorf("scrape %d: empty exposition", scrape)
		}
		if err != nil {
			t.Errorf("scrape %d: %v", scrape, err)
		}
		var edgeW ExpositionWriter
		e.WriteExposition(&edgeW)
		if len(edgeW.Bytes()) == 0 {
			t.Errorf("scrape %d: empty edge exposition", scrape)
		}
	}
	close(stop)
	wg.Wait()
}

// TestExpositionFormat pins the histogram rendering rules: cumulative
// buckets are monotone, the +Inf bucket equals _count, and vec labels
// come out sorted.
func TestExpositionFormat(t *testing.T) {
	var h Histogram
	for _, v := range []float64{0.5, 0.5, 3, 1e9} {
		h.Observe(v)
	}
	var w ExpositionWriter
	w.Histogram("test_hist", "help text", &h)
	out := string(w.Bytes())
	if !strings.Contains(out, "# HELP test_hist help text\n# TYPE test_hist histogram\n") {
		t.Fatalf("missing HELP/TYPE header:\n%s", out)
	}
	if !strings.Contains(out, `test_hist_bucket{le="+Inf"} 4`) {
		t.Fatalf("+Inf bucket must equal the observation count:\n%s", out)
	}
	if !strings.Contains(out, "test_hist_count 4") || !strings.Contains(out, "test_hist_sum 1.000000004e+09") {
		t.Fatalf("missing _count/_sum samples:\n%s", out)
	}

	var wv ExpositionWriter
	wv.HistogramVec("lat", "l", "endpoint", map[string]*Histogram{
		"zeta": {}, "alpha": {},
	})
	out = string(wv.Bytes())
	if strings.Index(out, `endpoint="alpha"`) > strings.Index(out, `endpoint="zeta"`) {
		t.Fatalf("vec labels must render sorted:\n%s", out)
	}
}

func TestEdgeFixedEndpoints(t *testing.T) {
	e := NewEdge("submit", "status", "submit") // duplicate collapses
	e.Observe("submit", 0.25)
	e.Observe("unknown", 99) // dropped, not a panic or a new series
	var w ExpositionWriter
	e.WriteExposition(&w)
	out := string(w.Bytes())
	if !strings.Contains(out, `endpoint="submit"`) || strings.Contains(out, "unknown") {
		t.Fatalf("unexpected exposition:\n%s", out)
	}
	if strings.Count(out, `endpoint="submit"`) == 0 {
		t.Fatalf("submit series missing:\n%s", out)
	}
}

// total is a snapshot's observation count, the sum of all buckets.
func total(s HistSnapshot) uint64 {
	var n uint64
	for _, c := range s.Counts {
		n += c
	}
	return n
}
