package trainer

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"github.com/hpcsched/gensched/internal/dist"
	"github.com/hpcsched/gensched/internal/mlfit"
	"github.com/hpcsched/gensched/internal/stats"
)

// ScoreDistribution draws nTuples tuples and concatenates their samples:
// this is the training set Tr, the score(r, n, s) distribution of §3.2.
// Tuple i uses sub-seed Split(seed, i) for generation and scoring.
func ScoreDistribution(nTuples int, spec TupleSpec, cfg TrialConfig, seed uint64) ([]mlfit.Sample, error) {
	if nTuples <= 0 {
		return nil, fmt.Errorf("trainer: tuple count must be positive, got %d", nTuples)
	}
	var samples []mlfit.Sample
	for i := 0; i < nTuples; i++ {
		sub := dist.Split(seed, uint64(i))
		tuple, err := GenerateTuple(spec, sub)
		if err != nil {
			return nil, err
		}
		c := cfg
		c.Seed = dist.Split(sub, 1)
		ts, err := ScoreTuple(tuple, c)
		if err != nil {
			return nil, err
		}
		samples = append(samples, ts.Samples...)
	}
	return samples, nil
}

// Convergence reproduces the Figure 2 study: for each trial count, score
// the same tuple reps times with different seeds, measure each task's
// score standard deviation across repetitions, average over tasks, and
// normalize by the value at the first (smallest) count. The returned
// series starts at 1.0 and drops toward 0 as trials grow.
func Convergence(t Tuple, counts []int, reps int, cfg TrialConfig) ([]float64, error) {
	if len(counts) == 0 || reps < 2 {
		return nil, fmt.Errorf("trainer: convergence needs counts and reps >= 2")
	}
	raw := make([]float64, len(counts))
	for ci, count := range counts {
		perTask := make([][]float64, len(t.Q))
		for rep := 0; rep < reps; rep++ {
			c := cfg
			c.Trials = count
			c.Seed = dist.Split(cfg.Seed, uint64(ci*10007+rep))
			ts, err := ScoreTuple(t, c)
			if err != nil {
				return nil, err
			}
			for i, s := range ts.Scores {
				perTask[i] = append(perTask[i], s)
			}
		}
		var sum float64
		for _, xs := range perTask {
			sum += stats.SampleStdDev(xs)
		}
		raw[ci] = sum / float64(len(perTask))
	}
	norm := raw[0]
	if norm <= 0 {
		return raw, nil
	}
	out := make([]float64, len(raw))
	for i, v := range raw {
		out[i] = v / norm
	}
	return out, nil
}

// WriteScoreCSV writes samples in the artifact's score-distribution.csv
// format: "runtime,#processors,submit time,score", one task per line, no
// header.
func WriteScoreCSV(w io.Writer, samples []mlfit.Sample) error {
	bw := bufio.NewWriter(w)
	for _, s := range samples {
		if _, err := fmt.Fprintf(bw, "%g,%g,%g,%g\n", s.R, s.N, s.S, s.Score); err != nil {
			return fmt.Errorf("trainer: writing csv: %w", err)
		}
	}
	return bw.Flush()
}

// ReadScoreCSV parses the artifact CSV format back into samples.
func ReadScoreCSV(r io.Reader) ([]mlfit.Sample, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var out []mlfit.Sample
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Split(line, ",")
		if len(parts) != 4 {
			return nil, fmt.Errorf("trainer: csv line %d: %d fields, want 4", lineNo, len(parts))
		}
		var vals [4]float64
		for i, p := range parts {
			v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil {
				return nil, fmt.Errorf("trainer: csv line %d field %d: %w", lineNo, i+1, err)
			}
			vals[i] = v
		}
		out = append(out, mlfit.Sample{R: vals[0], N: vals[1], S: vals[2], Score: vals[3]})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trainer: reading csv: %w", err)
	}
	return out, nil
}
