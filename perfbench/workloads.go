package main

import (
	"fmt"
	"time"

	"nasgo/internal/candle"
	"nasgo/internal/evaluator"
	"nasgo/internal/nasbench"
	"nasgo/internal/rng"
	"nasgo/internal/search"
	"nasgo/internal/space"
)

// shape is a workload's traffic definition. The traffic and the per-layer
// probes both read it, so a probe measures its layer at exactly the space,
// batch, node count and architectures the traffic uses
// (TestProbeShapesMatchTraffic pins this).
type shape struct {
	// space is "combo-micro" (the tabulated tournament sub-space) or
	// "combo-small" (the full small Combo space).
	space      string
	strategies []string // op i runs strategies[i % len]
	agents     int
	workers    int // M: architectures per agent round
	horizon    float64
	// walltime, when > 0, runs each search as a chain of allocations of
	// this many virtual seconds.
	walltime float64
	// realEpochs and realBatch override the reward-training budget
	// (0 = the evaluator defaults).
	realEpochs, realBatch int
}

func (s shape) nodes() int { return s.agents * s.workers }

// usesController reports whether any strategy of the shape runs the RL
// controller.
func (s shape) usesController() bool {
	for _, st := range s.strategies {
		if st == search.A3C || st == search.A2C {
			return true
		}
	}
	return false
}

// newSpace builds the shape's search space.
func (s shape) newSpace() (*space.Space, error) {
	switch s.space {
	case "combo-micro":
		return nasbench.ComboMicro(), nil
	case "combo-small":
		return space.NewComboSmall(), nil
	}
	return nil, errorf("unknown space %q", s.space)
}

// config is the search configuration of op i.
func (s shape) config(i int, seed uint64) search.Config {
	cfg := search.Config{
		Strategy:        s.strategies[i%len(s.strategies)],
		Agents:          s.agents,
		WorkersPerAgent: s.workers,
		Horizon:         s.horizon,
		Walltime:        s.walltime,
		Seed:            seed,
	}
	cfg.Eval.RealEpochs = s.realEpochs
	cfg.Eval.RealBatchSize = s.realBatch
	return cfg
}

// trainConfig is the reward-training configuration of the shape in
// benchmark mode (rewards pinned by a seed-derived BenchSeed): what
// replay-rl's table build and every training probe run.
func (s shape) trainConfig(seed uint64) evaluator.Config {
	return evaluator.Config{BenchSeed: derive(seed, "bench", 0), RealEpochs: s.realEpochs, RealBatchSize: s.realBatch}
}

// archSample draws n architectures of sp from seed: the probes' inputs.
func archSample(sp *space.Space, seed uint64, n int) [][]int {
	r := rng.New(seed ^ 0xa5c4)
	out := make([][]int, n)
	for i := range out {
		out[i] = sp.RandomChoices(r)
	}
	return out
}

// derive mixes the workload seed with a stream label and an index, so
// every input the harness generates is a function of the seed alone.
func derive(seed uint64, label string, i int) uint64 {
	h := seed ^ 0x9e3779b97f4a7c15
	for j := 0; j < len(label); j++ {
		h = (h ^ uint64(label[j])) * 0x100000001b3
	}
	h ^= uint64(i) * 0xbf58476d1ce4e5b9
	h ^= h >> 31
	h *= 0x94d049bb133111eb
	h ^= h >> 29
	if h == 0 {
		h = 1
	}
	return h
}

// newBench generates the Combo data the workload trains on and reports
// how long generation took.
func newBench(seed uint64) (*candle.Benchmark, time.Duration) {
	c := readClock()
	b := candle.NewCombo(candle.Config{Seed: derive(seed, "data", 0)})
	return b, c.ran()
}

// workload is one named traffic mix. README.md gives each one's reason.
type workload struct {
	name  string
	shape shape
	// setupReps is how many times a run repeats set-up to report its
	// median.
	setupReps int
	// newInstance sets the workload up (tr non-nil in the traced run).
	newInstance func(w *workload, seed uint64, tr *tracer) (instance, error)
}

// instance is a set-up workload.
type instance interface {
	// run executes units of work until p's deadline passes or p.limit
	// units are done, recording what they cost and did into p.
	run(p *phase) error
	// target returns what the probes measure against.
	target() probeTarget
	// lanes is how many host goroutines carry the work at once: the
	// denominator that turns summed layer time into a share of wall.
	lanes() int
	// close releases the instance's files and goroutines.
	close() error
}

// phase is one measured stretch of a run and everything it recorded.
type phase struct {
	deadline time.Time // no new unit starts after it (zero: none)
	limit    int       // stop after this many units (0: none)
	tr       *tracer   // non-nil attaches the recorder and seam wrappers

	units  int   // searches, allocations or campaigns completed
	ops    int   // ops completed (what ops_per_s counts)
	failed int   // ops whose output failed a check
	evals  int   // reward estimations delivered
	use    usage // wall, CPU and bytes charged to the ops
	// busy is the unstolen wall time throughput is measured over:
	// use.ran() for one client; for several, ops over the sum of the
	// clients' own rates.
	busy    time.Duration
	lat     []float64 // per-op latency samples, ms
	http    []float64 // per-request latency samples, ms (campaign-http)
	digests []string  // per-unit output digests, by unit index
	counts  layerCounts
	errs    []error
}

// more reports whether another unit should start.
func (p *phase) more() bool {
	if p.limit > 0 {
		return p.units < p.limit
	}
	return time.Now().Before(p.deadline)
}

// setDigest records unit i's output digest.
func (p *phase) setDigest(i int, d string) {
	for len(p.digests) <= i {
		p.digests = append(p.digests, "")
	}
	p.digests[i] = d
}

// fail records a failed check; the first few errors go to stderr.
func (p *phase) fail(n int, err error) {
	p.failed += n
	if len(p.errs) < 5 {
		p.errs = append(p.errs, err)
	}
}

// layerCounts are the deterministic per-layer counts a phase saw.
type layerCounts struct {
	results, jobs, cacheHits, failedEvals, retries int
	virtualS                                       float64
	exchanges, syncRounds                          int
	trainings                                      int
	hpcEvents, traceEvents, traceDropped           int64
	allocations                                    int
	logBytes, logFetches                           int64
}

// addLog folds one finished search log into the counts.
func (c *layerCounts) addLog(l *search.Log) {
	c.results += len(l.Results)
	c.jobs += l.Evaluations
	c.cacheHits += l.CacheHits
	c.failedEvals += l.FailedEvals
	c.retries += l.Retries
	c.virtualS += l.EndTime
	c.exchanges += l.PS.Exchanges
	c.syncRounds += l.PS.Rounds
}

// workloads is the benchmark's workload table. Every workload is a closed
// loop; campaign-http runs GOMAXPROCS clients, the others one.
var workloads = []*workload{
	// Tournament traffic: the RL controller carries most of the wall time;
	// set-up is the cold build of the table the searches replay.
	{
		name: "replay-rl", setupReps: 3, newInstance: newReplayRL,
		shape: shape{space: "combo-micro", strategies: []string{search.A3C, search.A2C},
			agents: 2, workers: 4, horizon: 1800},
	},
	// The paper's 256-node shape with no controller and no training: every
	// evaluation is a unique Balsam job, so a controller change reads flat.
	{
		name: "replay-swarm", setupReps: 5, newInstance: newReplaySwarm,
		shape: shape{space: "combo-small", strategies: []string{search.RDM},
			agents: 21, workers: 11, horizon: 6 * 3600},
	},
	// Real reward training on the host pool: the kernel and pool workload.
	// Short searches with one-epoch trainings keep a run's architecture mix
	// from hanging on one search's taste (README.md).
	{
		name: "live-search", setupReps: 5, newInstance: newLiveSearch,
		shape: shape{space: "combo-small", strategies: []string{search.A3C},
			agents: 3, workers: 6, horizon: 600, walltime: 150, realEpochs: 1},
	},
	// The campaign test spec's shape through nas-server: the only workload
	// through ckpt/fsim, the store and the HTTP edge.
	{
		name: "campaign-http", setupReps: 5, newInstance: newCampaignHTTP,
		shape: shape{space: "combo-small", strategies: []string{search.A2C},
			agents: 2, workers: 2, horizon: 400, walltime: 100, realEpochs: 1, realBatch: 64},
	},
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("perfbench: unknown workload %q (want one of %v)", name, names)
}
