package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// The repeatability check, the way the benchmark's acceptance is
// specified: every workload on ten seeds, twice. Per workload and
// end-to-end metric, the spread of the ten values (interquartile
// distance over median) must stay within the metric's bound in both
// sets — set-up time excepted — and the second set's median must not be
// worse than the first's by more than the bound.

const selfcheckSeeds = 10

// benchmarkFile is the slice of BENCHMARK.json the check reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func runSelfcheck(bin string, seconds float64, rounds int) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	// values[set][workload][metric] holds the ten per-seed values.
	var values [2]map[string]map[string][]float64
	for set := range values {
		values[set] = map[string]map[string][]float64{}
		for _, w := range workloads {
			values[set][w.name] = map[string][]float64{}
			for seed := uint64(1); seed <= selfcheckSeeds; seed++ {
				res, err := measure(bin, []spec{w}, seed+uint64(set)*selfcheckSeeds, seconds/float64(rounds), rounds)
				if err != nil {
					return err
				}
				if res[0].failed > 0 {
					return fmt.Errorf("%s seed %d: %d ops failed", w.name, seed, res[0].failed)
				}
				for name, v := range res[0].e2e() {
					values[set][w.name][name] = append(values[set][w.name][name], v)
				}
			}
		}
	}
	var report strings.Builder
	breaches := 0
	fmt.Fprintf(&report, "%-16s %-22s %12s %12s %8s %8s %8s %6s\n",
		"workload", "metric", "median 1", "median 2", "spread 1", "spread 2", "drift", "bound")
	for _, w := range workloads {
		for _, m := range bf.EndToEnd {
			a, b := values[0][w.name][m.Name], values[1][w.name][m.Name]
			ma, mb := median(a), median(b)
			// drift > 0 means the second set is worse.
			drift := (mb - ma) / ma
			if m.Better == "higher" {
				drift = -drift
			}
			sa, sb := spread(a), spread(b)
			verdict := ""
			if drift > m.Bound || (m.Name != "setup_s" && (sa > m.Bound || sb > m.Bound)) {
				verdict = "  BREACH"
				breaches++
			}
			fmt.Fprintf(&report, "%-16s %-22s %12.4f %12.4f %7.1f%% %7.1f%% %+7.1f%% %5.0f%%%s\n",
				w.name, m.Name, ma, mb, 100*sa, 100*sb, 100*drift, 100*m.Bound, verdict)
		}
	}
	fmt.Fprintf(&report, "\n%d seeds per set, %d rounds of %.1fs per run; %d breaches\n",
		selfcheckSeeds, rounds, seconds/float64(rounds), breaches)
	if _, err := io.WriteString(os.Stdout, "\n"+report.String()); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, "selfcheck.txt"), []byte(report.String()), 0o644); err != nil {
		return err
	}
	if breaches > 0 {
		return fmt.Errorf("selfcheck: %d metric/workload pairs outside their bounds", breaches)
	}
	return nil
}
