// Command paperrepro regenerates every table and figure of the paper and
// writes the series as CSV files plus a human-readable report.
//
// The training-side experiments (Figures 1–3, Table 3) drive the
// internal experiments package; the evaluation scenarios (Figures 4–9,
// Table 4) are declared as gensched Scenarios — one policy-axis Grid per
// scenario over the suite's shared workloads — and executed by the
// public Runner, with Ctrl-C cancelling the run cleanly.
//
// Usage:
//
//	paperrepro -out out/              # reduced scale (minutes)
//	paperrepro -full -out out/        # paper scale (minutes, see below)
//	paperrepro -only scenarios,table3 # a subset of experiments
//
// Paper scale costs minutes, not hours: on a 2-vCPU machine,
// -full -only table3 (262 144 trials × 64 tuples) took 1 m 45 s wall
// (3 m 28 s CPU) and -full -only table4 took 3 s.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	gensched "github.com/hpcsched/gensched"
	"github.com/hpcsched/gensched/internal/experiments"
	"github.com/hpcsched/gensched/internal/expr"
	"github.com/hpcsched/gensched/internal/trainer"
)

func main() {
	var (
		out  = flag.String("out", "out", "output directory")
		full = flag.Bool("full", false, "run at the paper's full scale")
		only = flag.String("only", "", "comma-separated experiment ids (fig1,fig2,fig3,table3,table4,table5,scenarios)")
	)
	flag.Parse()
	cfg := experiments.QuickConfig()
	if *full {
		cfg = experiments.DefaultConfig()
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, cfg, *out, *only); err != nil {
		fmt.Fprintln(os.Stderr, "paperrepro:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, cfg experiments.Config, outDir, only string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	want := map[string]bool{}
	for _, id := range strings.Split(only, ",") {
		if id = strings.TrimSpace(id); id != "" {
			want[id] = true
		}
	}
	selected := func(id string) bool { return len(want) == 0 || want[id] }
	report, err := os.Create(filepath.Join(outDir, "report.txt"))
	if err != nil {
		return err
	}
	defer report.Close()
	logf := func(format string, args ...any) {
		fmt.Printf(format+"\n", args...)
		fmt.Fprintf(report, format+"\n", args...)
	}
	start := time.Now()

	if selected("fig1") {
		res, err := experiments.Fig1(cfg, 2)
		if err != nil {
			return err
		}
		for i, ts := range res {
			path := filepath.Join(outDir, fmt.Sprintf("fig1%c.csv", 'a'+i))
			if err := writeFile(path, func(w io.Writer) error {
				fmt.Fprintln(w, "task,score")
				for ti, s := range ts.Scores {
					fmt.Fprintf(w, "%d,%g\n", ti, s)
				}
				return nil
			}); err != nil {
				return err
			}
			logf("fig1%c: %d trial scores -> %s (mean line %.4f)", 'a'+i, len(ts.Scores), path, 1.0/float64(len(ts.Scores)))
		}
	}

	if selected("fig2") {
		res, err := experiments.Fig2(cfg)
		if err != nil {
			return err
		}
		path := filepath.Join(outDir, "fig2.csv")
		if err := writeFile(path, func(w io.Writer) error {
			fmt.Fprintln(w, "trials,normalized_stddev")
			for i, c := range res.Counts {
				fmt.Fprintf(w, "%d,%g\n", c, res.Normalized[i])
			}
			return nil
		}); err != nil {
			return err
		}
		logf("fig2 -> %s\n%s", path, experiments.FormatFig2(res))
	}

	var learned []expr.Func
	if selected("table3") {
		res, err := experiments.Table3(cfg)
		if err != nil {
			return err
		}
		samples, err := trainer.ScoreDistribution(1, trainer.DefaultSpec(),
			trainer.TrialConfig{Trials: min(cfg.Trials, 1024)}, cfg.Seed)
		if err == nil && len(samples) > 0 {
			// Also persist a small sample of the training distribution;
			// best-effort, but a failure is reported, not swallowed.
			samplePath := filepath.Join(outDir, "score-distribution-sample.csv")
			if err := writeFile(samplePath, func(w io.Writer) error {
				return trainer.WriteScoreCSV(w, samples)
			}); err != nil {
				logf("warning: %v", err)
			}
		}
		logf("table3:\n%s", experiments.FormatTable3(res))
		for _, b := range res.Best {
			s, _ := b.Func.Simplified()
			learned = append(learned, s)
		}
		// Persist the learned policies as parseable strings: each line
		// loads back via `schedtest -custom "<line>"`.
		if err := writeFile(filepath.Join(outDir, "learned-policies.txt"), func(w io.Writer) error {
			for _, fn := range learned {
				fmt.Fprintln(w, fn.Compact())
			}
			return nil
		}); err != nil {
			return err
		}
		logf("learned policies -> %s", filepath.Join(outDir, "learned-policies.txt"))
	}

	if selected("fig3") {
		funcs := []expr.Func{
			{Form: expr.Form{A: expr.BaseLog, B: expr.BaseID, C: expr.BaseLog, Op1: expr.OpMul, Op2: expr.OpAdd}, C: [3]float64{1, 1, 8.70e2}},
			{Form: expr.Form{A: expr.BaseSqrt, B: expr.BaseID, C: expr.BaseLog, Op1: expr.OpMul, Op2: expr.OpAdd}, C: [3]float64{1, 1, 2.56e4}},
			{Form: expr.Form{A: expr.BaseID, B: expr.BaseID, C: expr.BaseLog, Op1: expr.OpMul, Op2: expr.OpAdd}, C: [3]float64{1, 1, 6.86e6}},
			{Form: expr.Form{A: expr.BaseID, B: expr.BaseSqrt, C: expr.BaseLog, Op1: expr.OpMul, Op2: expr.OpAdd}, C: [3]float64{1, 1, 5.30e5}},
		}
		maps, err := experiments.Fig3(funcs, []string{"F1", "F2", "F3", "F4"}, 64)
		if err != nil {
			return err
		}
		path := filepath.Join(outDir, "fig3.csv")
		if err := writeFile(path, func(w io.Writer) error {
			fmt.Fprintln(w, "policy,panel,x,y,z")
			for _, h := range maps {
				panel := h.XLabel + "|" + h.YLabel
				for yi, y := range h.Ys {
					for xi, x := range h.Xs {
						fmt.Fprintf(w, "%s,%s,%g,%g,%g\n", h.Policy, panel, x, y, h.Z[yi][xi])
					}
				}
			}
			return nil
		}); err != nil {
			return err
		}
		logf("fig3: %d panels -> %s", len(maps), path)
	}

	if selected("table5") {
		rows, err := experiments.Table5(cfg)
		if err != nil {
			return err
		}
		logf("table5:\n%s", experiments.FormatTable5(rows))
	}

	if selected("table4") || selected("scenarios") {
		// The suite builds every workload once (fig4a/5a/6a share their
		// sequences, as the paper re-schedules the same windows under
		// each condition); each scenario then becomes one policy-axis
		// grid executed by the public Runner.
		suite, err := experiments.BuildSuite(cfg)
		if err != nil {
			return err
		}
		t4 := &experiments.Table4Result{}
		for _, p := range gensched.Policies() {
			t4.Policies = append(t4.Policies, p.Name())
		}
		r := &gensched.Runner{Workers: cfg.Workers}
		for _, esc := range suite.Scenarios() {
			opts := []gensched.Option{
				gensched.WithName(esc.ID),
				gensched.WithSeed(cfg.Seed),
				gensched.WithBackfill(esc.Backfill),
			}
			if esc.UseEstimates {
				opts = append(opts, gensched.WithEstimates())
			}
			sc, err := gensched.NewScenario(opts...)
			if err != nil {
				return err
			}
			g, err := gensched.NewGrid(sc,
				gensched.OverSources(gensched.FixedWindows(esc.Name, esc.Cores, esc.Windows)),
				gensched.OverPolicies())
			if err != nil {
				return err
			}
			res, err := r.Run(ctx, g)
			if err != nil {
				return err
			}
			path := filepath.Join(outDir, esc.ID+".csv")
			if err := writeFile(path, res.WriteCSV); err != nil {
				return err
			}
			logf("%s (%s) -> %s", esc.ID, esc.Name, path)
			logf("%s", res.ArtifactReport())
			row := experiments.Table4Row{Label: esc.Name}
			for _, c := range res.Cells {
				row.Medians = append(row.Medians, c.Median())
			}
			t4.Rows = append(t4.Rows, row)
		}
		logf("table4:\n%s", t4.Format())
	}

	logf("paperrepro: done in %v", time.Since(start).Round(time.Second))
	// The deferred close backstops early returns; on success the explicit
	// close surfaces any write-out error instead of dropping it.
	return report.Close()
}

// writeFile writes one report artifact, surfacing every write and close
// error — a silently truncated CSV is worse than a crash.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := write(bw); err != nil {
		_ = f.Close() // the write error is the one worth reporting
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close() // the flush error is the one worth reporting
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}
