package main

import (
	"bufio"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// parseProcIO extracts the syscall counters from /proc/<pid>/io.
func parseProcIO(text string) (syscr, syscw int64, err error) {
	syscr, syscw = -1, -1
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, "syscr:"); ok {
			syscr, err = strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		} else if v, ok := strings.CutPrefix(line, "syscw:"); ok {
			syscw, err = strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		}
		if err != nil {
			return 0, 0, fmt.Errorf("/proc io: %w", err)
		}
	}
	if syscr < 0 || syscw < 0 {
		return 0, 0, fmt.Errorf("/proc io: syscr/syscw missing")
	}
	return syscr, syscw, nil
}

// parseStatusField returns the leading integer of a "Name:\tvalue [kB]"
// line of /proc/<pid>/status, 0 when absent.
func parseStatusField(text, name string) int64 {
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, name); ok {
			f := strings.Fields(v)
			if len(f) == 0 {
				return 0
			}
			n, _ := strconv.ParseInt(f[0], 10, 64) // a non-number reads as absent
			return n
		}
	}
	return 0
}

// parseSchedstat returns the on-CPU nanoseconds, the first field of
// /proc/<pid>/task/<tid>/schedstat.
func parseSchedstat(text string) int64 {
	f := strings.Fields(text)
	if len(f) == 0 {
		return 0
	}
	n, _ := strconv.ParseInt(f[0], 10, 64) // a non-number reads as absent
	return n
}

// memStats is the slice of runtime.MemStats the benchmark uses, read
// from the comment trailer of /debug/pprof/allocs?debug=1.
type memStats struct {
	mallocs    uint64
	totalAlloc uint64
	numGC      uint64
	pauseNs    []uint64 // the runtime's circular buffer of recent pauses
}

func parseMemStats(text string) (memStats, error) {
	var m memStats
	seen := 0
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), "# ")
		if !ok {
			continue
		}
		name, val, ok := strings.Cut(line, " = ")
		if !ok {
			continue
		}
		var err error
		switch name {
		case "Mallocs":
			m.mallocs, err = strconv.ParseUint(val, 10, 64)
		case "TotalAlloc":
			m.totalAlloc, err = strconv.ParseUint(val, 10, 64)
		case "NumGC":
			m.numGC, err = strconv.ParseUint(val, 10, 64)
		case "PauseNs":
			for _, f := range strings.Fields(strings.Trim(val, "[]")) {
				var p uint64
				if p, err = strconv.ParseUint(f, 10, 64); err != nil {
					break
				}
				m.pauseNs = append(m.pauseNs, p)
			}
		default:
			continue
		}
		if err != nil {
			return m, fmt.Errorf("MemStats %s: %w", name, err)
		}
		seen++
	}
	if seen < 4 {
		return m, fmt.Errorf("MemStats trailer incomplete (%d of 4 fields)", seen)
	}
	return m, nil
}

// gcPauseNs sums the pauses of the GC cycles that ran after from and up
// to to. The runtime keeps the last len(pauseNs) pauses, cycle k at
// index (k+len-1)%len; older ones are gone and count as zero.
func gcPauseNs(from, to memStats) uint64 {
	n := uint64(len(to.pauseNs))
	if n == 0 {
		return 0
	}
	first := from.numGC + 1
	if to.numGC >= n && first < to.numGC-n+1 {
		first = to.numGC - n + 1
	}
	var sum uint64
	for k := first; k <= to.numGC; k++ {
		sum += to.pauseNs[(k+n-1)%n]
	}
	return sum
}

// promHist is one Prometheus histogram series: cumulative counts by
// upper bound, in exposition order.
type promHist struct {
	le    []float64
	cum   []float64
	sum   float64
	count float64
}

// quantile interpolates linearly inside the bucket holding the q-th
// observation, the usual histogram_quantile estimate; the daemon's
// buckets are powers of two, so the answer is good to a factor of two
// at worst and is reported as such.
func (h *promHist) quantile(q float64) float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	rank := q * h.count
	prevLe, prevCum := 0.0, 0.0
	for i, c := range h.cum {
		if c >= rank {
			le := h.le[i]
			if math.IsInf(le, 1) {
				return prevLe
			}
			if c == prevCum {
				return le
			}
			return prevLe + (le-prevLe)*(rank-prevCum)/(c-prevCum)
		}
		prevLe, prevCum = h.le[i], c
	}
	return prevLe
}

// cumAt is the cumulative count at bound le. The exposition elides empty
// buckets, so an absent bound carries the count of the one below it.
func (h *promHist) cumAt(le float64) float64 {
	var c float64
	for i, b := range h.le {
		if b <= le {
			c = h.cum[i]
		}
	}
	return c
}

// histCombine returns Σplus − Σminus on the union of their bucket bounds;
// nil histograms (a series a scrape did not have yet) count as empty.
func histCombine(plus, minus []*promHist) *promHist {
	out := &promHist{}
	seen := map[float64]bool{}
	for _, h := range append(append([]*promHist(nil), plus...), minus...) {
		if h == nil {
			continue
		}
		for _, le := range h.le {
			if !seen[le] {
				seen[le] = true
				out.le = append(out.le, le)
			}
		}
	}
	sort.Float64s(out.le)
	out.cum = make([]float64, len(out.le))
	for sign, hs := range map[float64][]*promHist{1: plus, -1: minus} {
		for _, h := range hs {
			if h == nil {
				continue
			}
			for i, le := range out.le {
				out.cum[i] += sign * h.cumAt(le)
			}
			out.sum += sign * h.sum
			out.count += sign * h.count
		}
	}
	return out
}

// promScrape is a parsed /metrics page: plain samples by name, and
// histogram series by name plus label set ("" when unlabeled).
type promScrape struct {
	values map[string]float64
	hists  map[string]*promHist
}

func (p *promScrape) hist(key string) *promHist {
	h := p.hists[key]
	if h == nil {
		h = &promHist{}
		p.hists[key] = h
	}
	return h
}

// parseProm reads the text exposition format as schedd writes it: one
// sample per line, optional {label="v",...} set, le as the last label of
// a _bucket sample.
func parseProm(text string) (*promScrape, error) {
	p := &promScrape{values: map[string]float64{}, hists: map[string]*promHist{}}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics: malformed sample %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: sample %q: %w", line, err)
		}
		name, labels := line[:sp], ""
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name, labels = name[:i], strings.TrimSuffix(name[i+1:], "}")
		}
		switch {
		case strings.HasSuffix(name, "_bucket"):
			le := math.Inf(1)
			rest := labels
			if i := strings.LastIndex(labels, `le="`); i >= 0 {
				s := strings.TrimSuffix(labels[i+4:], `"`)
				if s != "+Inf" {
					if le, err = strconv.ParseFloat(s, 64); err != nil {
						return nil, fmt.Errorf("metrics: sample %q: %w", line, err)
					}
				}
				rest = strings.TrimSuffix(labels[:i], ",")
			}
			h := p.hist(strings.TrimSuffix(name, "_bucket") + "{" + rest + "}")
			h.le = append(h.le, le)
			h.cum = append(h.cum, v)
		case strings.HasSuffix(name, "_sum") && labelsOrHist(p, name, "_sum", labels):
			p.hist(strings.TrimSuffix(name, "_sum") + "{" + labels + "}").sum = v
		case strings.HasSuffix(name, "_count") && labelsOrHist(p, name, "_count", labels):
			p.hist(strings.TrimSuffix(name, "_count") + "{" + labels + "}").count = v
		default:
			p.values[name] = v
		}
	}
	return p, nil
}

// labelsOrHist tells a histogram's _sum/_count from a plain counter that
// merely ends in the same suffix: the series' buckets precede them.
func labelsOrHist(p *promScrape, name, suffix, labels string) bool {
	_, ok := p.hists[strings.TrimSuffix(name, suffix)+"{"+labels+"}"]
	return ok
}

// cpuShares attributes the flat samples of `go tool pprof -top` output
// to layers by the package of the leaf function and returns each layer's
// share of all samples.
func cpuShares(top string) (map[string]float64, error) {
	shares := map[string]float64{}
	var total float64
	inTable := false
	for _, line := range strings.Split(top, "\n") {
		f := strings.Fields(line)
		if !inTable {
			inTable = len(f) >= 5 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		flat, err := parsePprofValue(f[0])
		if err != nil {
			return nil, fmt.Errorf("pprof top: line %q: %w", line, err)
		}
		fn := strings.Join(f[5:], " ")
		shares[layerOf(fn)] += flat
		total += flat
	}
	if !inTable {
		return nil, fmt.Errorf("pprof top: no table header found")
	}
	if total > 0 {
		for k := range shares {
			shares[k] /= total
		}
	}
	return shares, nil
}

// parsePprofValue reads a duration cell of pprof's table ("1.23s",
// "40ms", "0") as seconds.
func parsePprofValue(s string) (float64, error) {
	for _, u := range []struct {
		suffix string
		scale  float64
	}{{"ms", 1e-3}, {"us", 1e-6}, {"ns", 1e-9}, {"hrs", 3600}, {"min", 60}, {"s", 1}} {
		if v, ok := strings.CutSuffix(s, u.suffix); ok {
			f, err := strconv.ParseFloat(v, 64)
			return f * u.scale, err
		}
	}
	return strconv.ParseFloat(s, 64)
}

const modulePath = "github.com/hpcsched/gensched/"

// layerOf maps a fully qualified function name to the layer that owns
// its package. The kernel side of a syscall is charged to "syscall":
// the profile's leaf for time spent in the kernel is the Go stub that
// entered it.
func layerOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, modulePath); ok {
		pkg := rest
		if i := strings.IndexByte(rest, '.'); i >= 0 {
			pkg = rest[:i]
		}
		switch pkg {
		case "internal/fed":
			return "fed"
		case "internal/online":
			return "online"
		case "internal/schedcore":
			return "schedcore"
		case "internal/sched", "internal/expr":
			return "sched"
		case "internal/durable":
			return "durable"
		case "internal/telemetry":
			return "telemetry"
		case "internal/adaptive":
			return "adaptive"
		case "internal/trainer":
			return "trainer"
		case "internal/mlfit":
			return "mlfit"
		case "cmd/schedd":
			return "schedd"
		}
		return "other"
	}
	switch {
	case !strings.ContainsAny(fn, "./"):
		return "runtime" // assembly helpers of the runtime carry no package (aeshashbody, memeqbody)
	case strings.HasPrefix(fn, "syscall."), strings.HasPrefix(fn, "internal/runtime/syscall."),
		strings.HasPrefix(fn, "runtime/internal/syscall."), strings.HasPrefix(fn, "internal/poll."):
		return "syscall"
	case strings.HasPrefix(fn, "runtime."), strings.HasPrefix(fn, "runtime/"),
		strings.HasPrefix(fn, "internal/runtime/"), strings.HasPrefix(fn, "sync."),
		strings.HasPrefix(fn, "sync/"):
		return "runtime"
	case strings.HasPrefix(fn, "net/http."), strings.HasPrefix(fn, "net/http/"),
		strings.HasPrefix(fn, "net/textproto."), strings.HasPrefix(fn, "net/url."),
		strings.HasPrefix(fn, "net."), strings.HasPrefix(fn, "bufio."),
		strings.HasPrefix(fn, "mime."), strings.HasPrefix(fn, "context."):
		return "nethttp"
	case strings.HasPrefix(fn, "encoding/json."), strings.HasPrefix(fn, "strconv."),
		strings.HasPrefix(fn, "reflect."), strings.HasPrefix(fn, "unicode/"):
		return "json"
	}
	return "other"
}
