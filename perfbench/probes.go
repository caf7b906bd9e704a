package main

import (
	"runtime"
	"time"

	"nasgo/internal/balsam"
	"nasgo/internal/candle"
	"nasgo/internal/evaluator"
	"nasgo/internal/hpc"
	"nasgo/internal/nasbench"
	"nasgo/internal/rl"
	"nasgo/internal/rng"
	"nasgo/internal/space"
)

// probeTarget is what a workload's probes measure against: its data, its
// space, and its traffic shape.
type probeTarget struct {
	bench     *candle.Benchmark
	sp        *space.Space
	shape     shape
	seed      uint64
	tablePath string // replay-rl's finished table, else ""
	setup     setupTimes
	// trainEval configures the training probe like the workload's reward
	// training (benchmark mode, so the probe is reproducible).
	trainEval evaluator.Config
}

// Probe sizes: how many architectures a probe draws, and the minimum time
// a timed loop runs.
const (
	probeArchs      = 64
	probeTrainArchs = 4
	probeMinTime    = 200 * time.Millisecond
)

// probes holds the isolated per-call costs of each layer at the
// workload's shape. A layer the workload does not exercise reads 0.
type probes struct {
	rlSampleMS, rlGradMS, rlApplyMS float64
	rlGradAllocs, rlGradKB          float64
	rlEpochs                        int

	hashUS, compilePaperUS, compileScaledUS, compileAllocs float64

	trainMS, trainAllocs, trainMB float64

	balsamJobUS float64
	loadMS      float64
}

// runProbes measures each layer the workload exercises; train is whether
// it trains reward networks at all.
func runProbes(t probeTarget, train bool) (probes, error) {
	var pr probes
	archs := archSample(t.sp, derive(t.seed, "probe-archs", 0), probeArchs)
	if t.shape.usesController() {
		probeRL(&pr, t)
	}
	probeSpace(&pr, t, archs)
	if train {
		if err := probeTrain(&pr, t, archs[:probeTrainArchs]); err != nil {
			return pr, err
		}
	}
	probeBalsam(&pr, t)
	if t.tablePath != "" {
		if err := probeLoad(&pr, t.tablePath); err != nil {
			return pr, err
		}
	}
	return pr, nil
}

// timeLoop calls f once to warm it up, then until probeMinTime has passed
// (at least min times), and returns the median ms per call, less the
// loop's stolen share, and the mean heap allocations and KB per call.
func timeLoop(min int, f func()) (ms, allocs, kb float64) {
	f()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var calls []float64
	start := readClock()
	for len(calls) < min || time.Since(start.at) < probeMinTime {
		t := time.Now()
		f()
		calls = append(calls, float64(time.Since(t))/1e6)
	}
	wall, stolen := start.since()
	runtime.ReadMemStats(&m1)
	n := float64(len(calls))
	ran := float64(wall-stolen) / float64(wall)
	return quantile(calls, 0.5) * ran, float64(m1.Mallocs-m0.Mallocs) / n, float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / n
}

// probeRL runs the controller at the workload's space and batch M: one
// Sample(M), one ComputeGradient on that batch, one ApplyGradient.
func probeRL(pr *probes, t probeTarget) {
	ctrl := rl.NewController(t.sp, derive(t.seed, "probe-rl", 0), rl.Config{})
	pr.rlEpochs = ctrl.Cfg.Epochs
	r := rng.New(derive(t.seed, "probe-rewards", 0))
	var eps []*rl.Episode
	pr.rlSampleMS, _, _ = timeLoop(3, func() { eps = ctrl.Sample(t.shape.workers) })
	for _, ep := range eps {
		ep.Reward = r.Float64()
	}
	var grad []float64
	pr.rlGradMS, pr.rlGradAllocs, pr.rlGradKB = timeLoop(3, func() { grad, _ = ctrl.ComputeGradient(eps) })
	pr.rlApplyMS, _, _ = timeLoop(3, func() { ctrl.ApplyGradient(grad) })
}

// probeSpace hashes and compiles the architecture sample at both the
// paper's and the scaled dimensions, as the evaluator does per job.
func probeSpace(pr *probes, t probeTarget, archs [][]int) {
	ms, _, _ := timeLoop(1, func() {
		for _, a := range archs {
			t.sp.Hash(a)
		}
	})
	pr.hashUS = ms * 1000 / float64(len(archs))
	ms, allocs, _ := timeLoop(1, func() {
		for _, a := range archs {
			t.sp.Compile(a, t.sp.PaperInputDims(), 1.0)
		}
	})
	pr.compilePaperUS = ms * 1000 / float64(len(archs))
	pr.compileAllocs = allocs / float64(len(archs))
	ms, _, _ = timeLoop(1, func() {
		for _, a := range archs {
			t.sp.Compile(a, t.bench.Train.InputDims(), t.bench.UnitScale)
		}
	})
	pr.compileScaledUS = ms * 1000 / float64(len(archs))
}

// probeTrain runs the evaluator's reward training on sample architectures
// with the workload's training configuration.
func probeTrain(pr *probes, t probeTarget, archs [][]int) error {
	sim := hpc.NewSim()
	ev := evaluator.New(sim, balsam.NewService(sim, 1), t.bench, t.sp, t.trainEval)
	var err error
	i := 0
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := readClock()
	for _, a := range archs {
		if _, _, e := ev.TabulateMetric(a); e != nil && err == nil {
			err = e
		}
		i++
	}
	el := start.ran()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return err
	}
	pr.trainMS = float64(el) / 1e6 / float64(i)
	pr.trainAllocs = float64(m1.Mallocs-m0.Mallocs) / float64(i)
	pr.trainMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20) / float64(i)
	return nil
}

// probeBalsam submits jobs to a Balsam service with the workload's node
// count and runs them to completion: the per-job dispatch cost.
func probeBalsam(pr *probes, t probeTarget) {
	nodes := t.shape.nodes()
	jobs := 50 * nodes
	r := rng.New(derive(t.seed, "probe-balsam", 0))
	durations := make([]float64, jobs)
	for i := range durations {
		durations[i] = 100 + 900*r.Float64()
	}
	ms, _, _ := timeLoop(3, func() {
		sim := hpc.NewSim()
		svc := balsam.NewService(sim, nodes)
		for i, d := range durations {
			svc.Submit(&balsam.Job{AgentID: i % t.shape.agents, Key: "probe", Duration: d, OnDone: func(*balsam.Job) {}})
		}
		sim.RunAll()
	})
	pr.balsamJobUS = ms * 1000 / float64(jobs)
}

// probeLoad reads the finished table artefact.
func probeLoad(pr *probes, path string) error {
	var err error
	pr.loadMS, _, _ = timeLoop(3, func() {
		if _, e := nasbench.ReadTable(path); e != nil {
			err = e
		}
	})
	return err
}
