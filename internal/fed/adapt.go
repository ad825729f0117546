// Per-shard adaptive retraining: every shard runs its own
// adaptive.Controller over its own substream — it observes the jobs the
// router placed on it, shadow-evaluates against its own backlog on a
// twin of its own machine, and promotes into its own scheduler. A round
// runs inside the mutation that made it due, under that shard's lock
// only, so on an N-shard daemon one shard's retraining never stalls the
// others.
//
// Start and stop fan out to every shard like a policy swap and are
// journaled per shard as adapt-start/adapt-stop records. Promotions are
// not journaled: rounds fire at logical-clock instants of the record
// stream and are deterministic for any worker count, so recovery replay
// re-derives every round and every promotion from the records that made
// them due, and snapshots carry the controller state.

package fed

import (
	"fmt"

	"github.com/hpcsched/gensched/internal/adaptive"
	"github.com/hpcsched/gensched/internal/dist"
	"github.com/hpcsched/gensched/internal/durable"
)

// StartAdapt attaches one adaptive loop per shard, sized by ac. It
// refuses (before touching any shard) while a loop is attached anywhere.
func (f *Federation) StartAdapt(ac durable.AdaptConfig) error {
	f.ctl.Lock()
	defer f.ctl.Unlock()
	for i, sh := range f.shards {
		sh.mu.Lock()
		running := sh.ad != nil
		sh.mu.Unlock()
		if running {
			return fmt.Errorf("fed: adaptive loop already running on shard %d; stop it first", i)
		}
	}
	rec := durable.Record{Op: durable.OpAdaptStart, Adapt: &ac}
	b := f.Batch()
	return b.Commit(f.fanOut(&b, &rec, func(sh *shard, i int) error { return f.startShardAdapt(sh, i, &ac) }))
}

// StopAdapt detaches every shard's adaptive loop; shards without one are
// unaffected.
func (f *Federation) StopAdapt() error {
	f.ctl.Lock()
	defer f.ctl.Unlock()
	rec := durable.Record{Op: durable.OpAdaptStop}
	b := f.Batch()
	return b.Commit(f.fanOut(&b, &rec, func(sh *shard, _ int) error { sh.stopAdapt(); return nil }))
}

// startShardAdapt attaches shard i's loop. Called with sh.mu held, for
// live starts and replayed ones alike.
func (f *Federation) startShardAdapt(sh *shard, i int, ac *durable.AdaptConfig) error {
	if ac == nil {
		return fmt.Errorf("fed: adapt-start record without config")
	}
	if sh.ad != nil {
		return fmt.Errorf("fed: adaptive loop already running on shard %d; stop it first", i)
	}
	ctrl, err := adaptive.New(f.adaptiveConfig(sh, i, ac))
	if err != nil {
		return err
	}
	cfg := *ac
	sh.ad, sh.adCfg, sh.adErr = ctrl, &cfg, nil
	return nil
}

// stopAdapt detaches the shard's loop. Called with sh.mu held.
func (sh *shard) stopAdapt() {
	sh.ad, sh.adCfg = nil, nil
}

// adaptiveConfig expands a journaled sizing into shard i's controller
// config: the machine shape and scheduling regime from the shard's
// scheduler, the sizing from the record. A lone shard uses the
// requested seed as is — a one-shard federation is the single engine,
// bit for bit — while N shards draw independent streams with dist.Split.
func (f *Federation) adaptiveConfig(sh *shard, i int, ac *durable.AdaptConfig) adaptive.Config {
	seed := ac.Seed
	if f.cfg.Shards > 1 {
		seed = dist.Split(ac.Seed, uint64(i))
	}
	opt := sh.s.Options()
	return adaptive.Config{
		Cores:         f.cfg.ShardCores,
		Now:           sh.s.Clock(),
		Backfill:      opt.Backfill,
		BackfillOrder: opt.BackfillOrder,
		UseEstimates:  opt.UseEstimates,
		Tau:           opt.Tau,
		Window:        ac.Window,
		MinWindow:     ac.MinWindow,
		Interval:      ac.Interval,
		MinDrift:      ac.MinDrift,
		SSize:         ac.SSize,
		QSize:         ac.QSize,
		Tuples:        ac.Tuples,
		Trials:        ac.Trials,
		TopK:          ac.TopK,
		Margin:        ac.Margin,
		Cooldown:      ac.Cooldown,
		Workers:       ac.Workers,
		Seed:          seed,
		// Runs inside adaptStep, under sh.mu.
		Queue:     sh.s.QueuedJobs,
		Telemetry: sh.tel,
	}
}

// adaptStep runs any adaptation round due at the shard's clock and
// applies its promotion. Called with sh.mu held, after a scheduling
// record applied. Loop errors are recorded for AdaptStatus rather than
// failing the request that happened to trigger the round, and a broken
// loop detaches so it cannot re-fail every request.
func (sh *shard) adaptStep() {
	if sh.ad == nil {
		return
	}
	d, err := sh.ad.Tick(sh.s.Clock(), sh.s.Policy())
	if err != nil {
		sh.adErr = err
		sh.ad = nil
		return
	}
	if d != nil && d.Promoted {
		// A snapshot rebuilds the promoted policy from its expression.
		if err := sh.setPolicy(d.Policy, d.Policy.Name(), d.PolicyExpr); err != nil {
			sh.adErr = err
		}
	}
}

// AdaptShard is one shard's adaptive-loop status.
type AdaptShard struct {
	Enabled    bool
	Window     int     // observed jobs in the window
	NextCheck  float64 // logical instant of the next round
	Rounds     int     // rounds that retrained
	Promotions int
	Policy     string // the shard's live policy
	LastError  string // the failure that detached the loop, if any
	// Last is a copy of the most recent round's decision, nil before the
	// first one.
	Last *adaptive.Decision
}

// AdaptStatus reports every shard's loop, in shard order.
func (f *Federation) AdaptStatus() []AdaptShard {
	out := make([]AdaptShard, len(f.shards))
	for i, sh := range f.shards {
		sh.mu.Lock()
		a := &out[i]
		a.Policy = sh.s.Policy().Name()
		if sh.adErr != nil {
			a.LastError = sh.adErr.Error()
		}
		if sh.ad != nil {
			a.Enabled = true
			a.Window = sh.ad.WindowLen()
			a.NextCheck = sh.ad.NextCheck()
			a.Rounds = sh.ad.Rounds()
			a.Promotions = sh.ad.Promotions()
			if d := sh.ad.LastDecision(); d != nil {
				last := *d
				a.Last = &last
			}
		}
		sh.mu.Unlock()
	}
	return out
}
