// Command schedd serves the online scheduling subsystem over HTTP/JSON: a
// scheduler daemon that accepts job submissions and completion reports as
// they happen, answers status and metrics queries, and hot-swaps the
// queue policy without restarting — the paper's learned policies deployed
// the way a production resource manager would deploy them.
//
// # API
//
//	POST /v1/submit    {"id":1,"cores":4,"runtime":120,"estimate":150,"now":7.5}
//	POST /v1/complete  {"id":1,"now":127.5}
//	POST /v1/advance   {"now":200}
//	POST /v1/policy    {"name":"F1"}  or  {"name":"L1","expr":"log10(r)*n + 870*log10(s)"}
//	POST /v1/adapt     {"action":"start","interval":3600,...}  or  {"action":"stop"}
//	GET  /v1/adapt     adaptive-loop status (rounds, promotions, last decision)
//	GET  /v1/status
//	GET  /v1/metrics
//	GET  /v1/trace     decision trace (?format=jsonl|chrome&sample=K&limit=N)
//	GET  /metrics      Prometheus text exposition
//	GET  /healthz      503 once every shard's journal has latched a failure
//	GET  /debug/pprof/ (with -pprof)
//
// Mutating endpoints reply {"now":..,"started":[{"id":..,"time":..,"wait":..,
// "backfilled":..},...]} — the jobs the request's scheduling pass started —
// or {"error":"..."} with a 4xx status. The clock is logical by default:
// each request carries "now" in seconds (omitted = the current clock) and
// time never goes backward. With -clock real the daemon stamps requests
// with wall time since boot instead and "now" is ignored.
//
// schedd shuts down gracefully on SIGINT/SIGTERM: the durable journals
// are checkpointed and closed after the final in-flight mutation (later
// mutations get 503), then in-flight requests drain before the process
// exits. A drain-time fsync failure latches the store — /healthz reports
// 503 for the rest of the grace period and the exit status is nonzero.
//
// The daemon is a federation of -shards shard schedulers (default 1 —
// which IS the single engine: the repo's differential tests pin a
// one-shard federation to it bit for bit), each its own -cores machine
// with its own logical clock, behind a deterministic consistent-hash
// router with a least-loaded fallback. /v1/status, /v1/metrics, /metrics
// and /v1/trace merge the shards deterministically ((clock, shard, seq)
// order); /v1/adapt runs one retraining loop per shard. With -data-dir
// each shard journals to <data-dir>/shard-NNNN/ and recovers
// independently on boot (a pre-federation flat layout, journal files at
// the top of the data dir, is refused); a shard whose store fails is
// quarantined — its mutations return 503 + Retry-After while healthy
// shards keep serving.
//
// With -binary-addr the same mutations are additionally served over a
// compact length-prefixed binary protocol (see internal/fed: wire.go)
// that amortizes syscalls by batching submits.
//
// Usage:
//
//	schedd -addr :8080 -cores 256 -policy FCFS -backfill easy -estimates
//	schedd -addr :8080 -shards 8 -cores 128 -binary-addr :8081
//	schedtest -daemon http://localhost:8080 -cores 256 -days 1   # load generator
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/hpcsched/gensched/internal/fed"
	"github.com/hpcsched/gensched/internal/online"
	"github.com/hpcsched/gensched/internal/sched"
	"github.com/hpcsched/gensched/internal/sim"
)

// daemonConfig is run's flag set; one struct so boot helpers and tests
// share it without a parade of positional arguments.
type daemonConfig struct {
	addr      string
	cores     int
	policy    string
	backfill  string
	estimates bool
	tau       float64
	clock     string
	check     bool
	dataDir   string  // "" = in-memory only
	fsync     int     // records per fsync batch
	ckptEvery float64 // logical seconds between checkpoints
	telemetry bool    // counters, histograms, decision trace, /metrics
	traceBuf  int     // decision-trace ring capacity in events
	pprofFlag bool    // expose net/http/pprof under /debug/pprof/

	shards     int    // shard count; 1 = the single engine
	binaryAddr string // compact binary protocol listener ("" = disabled)
	fedSeed    uint64 // router ring seed (placements are a pure function of it)
}

func main() {
	var cfg daemonConfig
	flag.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	flag.IntVar(&cfg.cores, "cores", 256, "machine size")
	flag.StringVar(&cfg.policy, "policy", "FCFS", "initial queue policy (name, or an expression like 'log10(r)*n+870*log10(s)')")
	flag.StringVar(&cfg.backfill, "backfill", "easy", "backfilling: none | easy | conservative")
	flag.BoolVar(&cfg.estimates, "estimates", false, "schedule on user estimates instead of submitted runtimes")
	flag.Float64Var(&cfg.tau, "tau", 0, "bounded-slowdown constant (0 = default 10s)")
	flag.StringVar(&cfg.clock, "clock", "logical", "clock source: logical (requests carry 'now') | real (wall time)")
	flag.BoolVar(&cfg.check, "check", false, "enable runtime invariant checking (development)")
	flag.StringVar(&cfg.dataDir, "data-dir", "", "durable state directory (empty = in-memory only; state is lost on exit)")
	flag.IntVar(&cfg.fsync, "fsync", 1, "journal records per fsync batch: each request (binary frame or HTTP call) syncs every shard it touched once N records are unsynced there (1 = every mutation durable before its response; N risks at most N-1 acknowledged records per shard)")
	flag.Float64Var(&cfg.ckptEvery, "checkpoint-interval", 3600, "logical seconds between snapshots (0 = only on shutdown)")
	flag.BoolVar(&cfg.telemetry, "telemetry", true, "enable counters, histograms, the decision trace, /metrics and /v1/trace")
	flag.IntVar(&cfg.traceBuf, "trace-buf", 4096, "decision-trace ring capacity in events")
	flag.BoolVar(&cfg.pprofFlag, "pprof", false, "expose net/http/pprof under /debug/pprof/")
	flag.IntVar(&cfg.shards, "shards", 1, "shard count: N independent -cores machines behind a deterministic router (-data-dir journals per shard)")
	flag.StringVar(&cfg.binaryAddr, "binary-addr", "", "listen address for the compact binary protocol (empty = disabled)")
	flag.Uint64Var(&cfg.fedSeed, "fed-seed", 1, "seed for the federation router's hash ring")
	flag.Parse()
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "schedd:", err)
		os.Exit(1)
	}
}

func run(cfg daemonConfig) error {
	fd, err := openFederation(cfg)
	if err != nil {
		return err
	}
	sv := newServer(fd, cfg)

	l, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		_ = fd.Drain() // cleanup; the listen error is already being reported
		return err
	}
	var bin *binServer
	if cfg.binaryAddr != "" {
		bl, berr := net.Listen("tcp", cfg.binaryAddr)
		if berr != nil {
			_ = l.Close()
			_ = fd.Drain()
			return berr
		}
		bin = newBinServer(bl, sv)
		bin.start()
		fmt.Fprintf(os.Stderr, "schedd: binary protocol on %s\n", bl.Addr())
	}
	st := fd.Status()
	fmt.Fprintf(os.Stderr, "schedd: serving %d shard(s) × %d cores under %s+%s on %s (clock: %s, fed seed %d)\n",
		cfg.shards, cfg.cores, st.Policy, cfg.backfill, l.Addr(), cfg.clock, cfg.fedSeed)
	if cfg.dataDir != "" {
		fmt.Fprintf(os.Stderr, "schedd: journaling per shard under %s (fsync every %d, checkpoint every %gs, recovered to t=%g)\n",
			cfg.dataDir, cfg.fsync, cfg.ckptEvery, st.Now)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err = serve(ctx, l, sv.handler(), func() error {
		// Binary connections stop first so the federation's drain — which
		// waits out in-flight mutations shard by shard and then checkpoints
		// and closes every shard store — is the last word.
		if bin != nil {
			bin.stop()
		}
		return fd.Drain()
	})
	// Safety net for the non-drain exit paths (listener error); Drain is
	// idempotent.
	if derr := fd.Drain(); err == nil {
		err = derr
	}
	if bin != nil {
		bin.stop()
	}
	return err
}

// openFederation builds the scheduler state the flags describe: -shards
// shard engines, recovered from -data-dir when one is given (a fresh
// directory is initialized; an existing one must have been recorded
// under the same machine shape).
func openFederation(cfg daemonConfig) (*fed.Federation, error) {
	p, err := resolvePolicy(cfg.policy, "")
	if err != nil {
		return nil, err
	}
	bf, err := parseBackfill(cfg.backfill)
	if err != nil {
		return nil, err
	}
	switch cfg.clock {
	case "logical", "real":
	default:
		return nil, fmt.Errorf("unknown clock source %q", cfg.clock)
	}
	if cfg.shards < 1 {
		return nil, fmt.Errorf("-shards must be at least 1, got %d", cfg.shards)
	}
	fcfg := fed.Config{
		Shards:     cfg.shards,
		ShardCores: cfg.cores,
		Opt: online.Options{
			Policy:       p,
			UseEstimates: cfg.estimates,
			Backfill:     bf,
			Tau:          cfg.tau,
			Check:        cfg.check,
		},
		Seed: cfg.fedSeed,
	}
	if cfg.telemetry {
		fcfg.TraceBuf = cfg.traceBuf
	}
	return fed.Open(fcfg, fed.DurableConfig{
		Dir:           cfg.dataDir,
		SyncEvery:     cfg.fsync,
		CkptEvery:     cfg.ckptEvery,
		PolicyName:    cfg.policy,
		ResolvePolicy: resolvePolicy,
	})
}

// serve runs the HTTP server until ctx is cancelled, then shuts down
// gracefully. Ordering is the durability contract: drain (when non-nil)
// runs FIRST — it must wait out the final in-flight mutation, refuse
// later ones, and flush+close the durable journal, latching any failure
// so /healthz turns 503 — and only then does the listener close and the
// remaining in-flight requests drain (up to a 10s grace period). A drain
// failure wins over shutdown errors and forces a nonzero exit: the
// daemon must never report "drained" with unsynced state on disk.
func serve(ctx context.Context, l net.Listener, h http.Handler, drain func() error) error {
	hs := &http.Server{
		Handler:     h,
		ReadTimeout: 30 * time.Second,
		BaseContext: func(net.Listener) context.Context { return ctx },
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(l) }()
	select {
	case <-ctx.Done():
		var derr error
		if drain != nil {
			derr = drain()
		}
		shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := hs.Shutdown(shCtx)
		if err == nil {
			<-errc // always http.ErrServerClosed after Shutdown
		}
		if derr != nil {
			return derr
		}
		return err
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}

// resolvePolicy resolves a policy by registry name, falling back to
// parsing it as a scoring expression; an explicit expr always parses.
func resolvePolicy(name, expr string) (sched.Policy, error) {
	if expr != "" {
		if name == "" {
			name = "CUSTOM"
		}
		return sched.ParseExpr(name, expr)
	}
	if p, err := sched.ByName(name); err == nil {
		return p, nil
	}
	if p, err := sched.ParseExpr("CUSTOM", name); err == nil {
		return p, nil
	}
	return nil, fmt.Errorf("unknown policy %q (not a registry name, not a parsable expression)", name)
}

func parseBackfill(s string) (sim.BackfillMode, error) {
	switch strings.ToLower(s) {
	case "none", "":
		return sim.BackfillNone, nil
	case "easy", "aggressive":
		return sim.BackfillEASY, nil
	case "conservative":
		return sim.BackfillConservative, nil
	}
	return 0, fmt.Errorf("unknown backfill mode %q", s)
}
