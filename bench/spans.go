package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// span is one timed call into a layer. Spans of one writer op share req;
// parent is the index of the span that caused this one, -1 for a root.
type span struct {
	name       string
	start, end int64 // ns since the recorder's epoch
	parent     int32
	req        int32
}

func (s span) dur() int64 { return s.end - s.start }

// recorder keeps spans in a preallocated slice and writes them out when
// the benchmark ends; recording is two clock reads and an append.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder(capacity int) *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its index for end and for children.
func (r *recorder) begin(name string, parent, req int) int {
	r.spans = append(r.spans, span{name: name, parent: int32(parent), req: int32(req)})
	i := len(r.spans) - 1
	r.spans[i].start = int64(time.Since(r.epoch))
	return i
}

func (r *recorder) end(i int) { r.spans[i].end = int64(time.Since(r.epoch)) }

// selfTimes returns, per span, its duration minus the time its child
// spans account for. overhead is what recording adds inside every span's
// own interval (see spanCost); it is taken out of each duration first, so
// a parent is not charged for its children's clock reads.
func (r *recorder) selfTimes(overhead int64) []int64 {
	self := make([]int64, len(r.spans))
	for i, s := range r.spans {
		d := s.dur() - overhead
		self[i] += d
		if s.parent >= 0 {
			self[s.parent] -= d
		}
	}
	return self
}

// byName groups a per-span quantity by span name.
func (r *recorder) byName(vals []int64) map[string][]float64 {
	out := map[string][]float64{}
	for i, s := range r.spans {
		out[s.name] = append(out[s.name], float64(vals[i]))
	}
	return out
}

func (r *recorder) durations() []int64 {
	d := make([]int64, len(r.spans))
	for i, s := range r.spans {
		d[i] = s.dur()
	}
	return d
}

// writeChrome saves the spans in Chrome's trace-event format (load in
// chrome://tracing or Perfetto). One row per nesting depth; args carry
// the causing span and the request. At most limit spans are written.
func (r *recorder) writeChrome(path string, limit int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	depth := make([]int, len(r.spans))
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	spans := r.spans
	if len(spans) > limit {
		spans = spans[:limit]
	}
	for i, s := range spans {
		if s.parent >= 0 {
			depth[i] = depth[s.parent] + 1
		}
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprintf(w, "\n"+`{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"span":%d,"parent":%d,"req":%d}}`,
			s.name, depth[i], float64(s.start)/1e3, float64(s.dur())/1e3, i, s.parent, s.req)
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return err
	}
	return f.Close()
}
