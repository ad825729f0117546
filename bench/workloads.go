package main

import (
	"fmt"
	"strconv"

	"github.com/hpcsched/gensched/internal/workload"
)

// spec is one benchmark workload: how the daemon is started, what
// traffic it gets and how much of it. Sizes are constants, not flags —
// a workload's numbers are only comparable across commits if the stream
// is the same — and scale with the measuring time alone.
type spec struct {
	name string
	why  string

	// Daemon configuration (schedd flags).
	shards    int
	cores     int // per shard
	policy    string
	backfill  string
	estimates bool
	durable   bool // -data-dir <dir> -fsync 1 -checkpoint-interval 0
	adapt     bool // POST /v1/adapt start before the warm-up

	// Traffic.
	binary bool // binary wire (true) or HTTP/JSON (false)
	frame  int  // records per writer op; 1 on HTTP
	// population is the number of jobs the closed system holds at all
	// times (see drive): it fixes the queue depth, whatever the seed.
	population int

	// Sizing. jobsPerSec is the number of jobs one timed second consumes
	// on the 2-core reference box (each job is a submit and a complete
	// event); warmJobs is the untimed prefix that belongs to set-up,
	// sized so set-up takes a few tenths of a second there; readEvery is
	// the writer-op distance between two reader GETs, sized for about
	// 300–500 reads in a round.
	jobsPerSec int
	warmJobs   int
	readEvery  int
}

// workloads is the fixed ladder. Each layer likely to be optimised does
// most of the work in one workload and little in another: HTTP edge
// (http-mem vs bin-*), wire+router (bin-fed-mem vs bin-deepq), journal
// (bin-fed-durable vs bin-fed-mem), engine pass (bin-deepq vs
// bin-fed-mem), adaptive stack (http-adapt vs http-mem).
var workloads = []spec{
	{
		name:   "http-mem",
		why:    "HTTP/JSON, 1 record per request, trivial FCFS+EASY pass: net/http, JSON and loopback do most of the work; wire, router and journal changes must show nothing",
		shards: 1, cores: 256, policy: "FCFS", backfill: "easy",
		frame: 1, population: 64,
		jobsPerSec: 12000, warmJobs: 5000, readEvery: 125,
	},
	{
		name:   "bin-fed-mem",
		why:    "binary frames of 64 records into 4 in-memory shards: syscalls amortised away, so codec, router, shard dispatch and engine are comparable; bypasses HTTP and the journal",
		shards: 4, cores: 256, policy: "FCFS", backfill: "easy",
		binary: true, frame: 64, population: 256,
		jobsPerSec: 250000, warmJobs: 150000, readEvery: 25,
	},
	{
		name:   "bin-fed-durable",
		why:    "bin-fed-mem plus a per-shard journal at -fsync 1 (frames of 32), then kill -9 and a full journal replay: the difference to bin-fed-mem is the durable layer",
		shards: 4, cores: 256, policy: "FCFS", backfill: "easy", durable: true,
		binary: true, frame: 32, population: 256,
		jobsPerSec: 110000, warmJobs: 70000, readEvery: 25,
	},
	{
		name:   "bin-deepq",
		why:    "binary single-record frames, a closed population of 300 jobs under F2+conservative+estimates: a queue hundreds deep makes the scheduling pass most of daemon CPU and the edge noise",
		shards: 1, cores: 256, policy: "F2", backfill: "conservative", estimates: true,
		binary: true, frame: 1, population: 300,
		jobsPerSec: 4500, warmJobs: 2500, readEvery: 50,
	},
	{
		name:   "http-adapt",
		why:    "HTTP reactive closed loop with the adaptive loop attached: retraining rounds run inline under the server mutex, take most of daemon CPU, and reads queue behind them",
		shards: 1, cores: 256, policy: "F3", backfill: "easy", estimates: true, adapt: true,
		frame: 1, population: 128,
		jobsPerSec: 5000, warmJobs: 2000, readEvery: 50,
	},
}

// The adaptive loop's sizing on http-adapt: how many retraining rounds
// the stream spans, and what one round trains on — the paper's |S| and
// |Q|, 2 tuples of 128 trials.
const (
	adaptRounds = 256
	adaptSSize  = 16
	adaptQSize  = 32
	adaptTuples = 2
	adaptTrials = 128
)

// adaptStartBody attaches the adaptive loop on http-adapt: every round
// retrains (min_drift 0), on a single worker so the daemon's CPU use does
// not depend on the host's core count, with the paper's tuple sizes and
// no cool-down so that every round does the same work. The interval is
// the stream's logical length (its work over the machine's capacity)
// over adaptRounds, so that every seed pays for the same number of
// rounds; with a fixed interval the count follows the seed's total work,
// which the heavy tails of the runtime distribution move by ±10 %.
func adaptStartBody(jobs []workload.Job, cores int) []byte {
	var work float64
	for _, j := range jobs {
		work += j.Area()
	}
	interval := work / float64(cores) / adaptRounds
	return []byte(fmt.Sprintf(`{"action":"start","interval":%g,"min_drift":0,"cooldown":1,"ssize":%d,"qsize":%d,"tuples":%d,"trials":%d,"workers":1,"seed":7}`,
		interval, adaptSSize, adaptQSize, adaptTuples, adaptTrials))
}

func workloadByName(name string) (spec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// daemonArgs renders the schedd command line. Addresses are :0 — the
// daemon reports the ports it got on stderr — so parallel checkouts
// never collide.
func (w spec) daemonArgs(dataDir string) []string {
	args := []string{
		"-addr", "127.0.0.1:0",
		"-shards", strconv.Itoa(w.shards),
		"-cores", strconv.Itoa(w.cores),
		"-policy", w.policy,
		"-backfill", w.backfill,
		"-pprof",
	}
	if w.estimates {
		args = append(args, "-estimates")
	}
	if w.binary {
		args = append(args, "-binary-addr", "127.0.0.1:0")
	}
	if w.durable {
		args = append(args, "-data-dir", dataDir, "-fsync", "1", "-checkpoint-interval", "0")
	}
	return args
}

// sized returns the workload at the size this environment can run: the
// durable workload is cut down when its journals have to live on a disk
// (see journalRoot).
func (w spec) sized() spec {
	if w.durable && !journals.memory {
		w.jobsPerSec /= diskShrink
		w.warmJobs /= diskShrink
	}
	return w
}

// jobs is the stream length for a round that measures for secs seconds.
func (w spec) jobs(secs float64) int {
	return w.warmJobs + int(float64(w.jobsPerSec)*secs)
}
