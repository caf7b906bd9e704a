// Command perfbench is nasgo's benchmark. It runs one of four workloads
// against the search stack through its public functions and prints, as its
// last line, one JSON result: the end-to-end metrics of an untraced run
// (--trace 0), or the per-layer metrics of a traced run (--trace 1).
// README.md describes the workloads, the metrics and what should move them.
//
//	go build -o perfbench . && ./perfbench --workload replay-rl --seed 1 --seconds 20 --trace 0
//
// Run it from the repository root (bash perfbench/run.sh does both steps).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Uint64("seed", pinSeed, "workload seed: every input derives from it")
	seconds := flag.Int("seconds", 20, "length of the measured phase in seconds")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end pass")
	pins := flag.String("update-pins", "", "write the op digests of a seed-1 run to this pins file")
	flag.Parse()
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	prov, err := newProvenance(root, w.name, *seed, *seconds, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if err := os.MkdirAll(filepath.Dir(scratchDir), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if scratchDir, err = os.MkdirTemp(filepath.Dir(scratchDir), "run-"); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer os.RemoveAll(scratchDir)

	if *pins != "" {
		pinsJSON = []byte("{}") // recording new pins: check against none
	}
	dur := time.Duration(*seconds) * time.Second
	var res *result
	var details map[string]any
	if *traced == 1 {
		res, details, err = tracedRun(w, *seed, dur, prov)
	} else {
		res, details, err = untracedRun(w, *seed, dur, *pins)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	info, err := json.Marshal(map[string]any{"provenance": prov, "details": details})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("%s\n%s\n", info, out)
	return 0
}

// setUp sets the workload up reps times and returns the last instance
// and the median set-up time; tr goes to the last set-up only.
func setUp(w *workload, seed uint64, reps int, tr *tracer) (instance, float64, error) {
	var times []float64
	for i := 0; ; i++ {
		c := readClock()
		var use *tracer
		if i == reps-1 {
			use = tr
		}
		ins, err := w.newInstance(w, seed, use)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, c.ran().Seconds())
		if i == reps-1 {
			return ins, quantile(times, 0.5), nil
		}
		if err := ins.close(); err != nil {
			return nil, 0, err
		}
	}
}

// untracedRun measures the end-to-end metrics.
func untracedRun(w *workload, seed uint64, dur time.Duration, pinsPath string) (*result, map[string]any, error) {
	ins, setupS, err := setUp(w, seed, w.setupReps, nil)
	if err != nil {
		return nil, nil, err
	}
	p := &phase{deadline: time.Now().Add(dur)}
	err = ins.run(p)
	if cerr := ins.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, nil, err
	}
	reportErrors(p)
	if p.ops == 0 || p.use.wall <= 0 || len(p.lat) == 0 {
		return nil, nil, errorf("%s completed no op in %v", w.name, dur)
	}
	if pinsPath != "" {
		if err := savePins(pinsPath, w.name, seed, p); err != nil {
			return nil, nil, err
		}
	}
	busy := p.use.ran().Seconds()
	if p.busy > 0 {
		busy = p.busy.Seconds()
	}
	vals := map[string]float64{
		"setup_s":         setupS,
		"ops_per_s":       float64(p.ops) / busy,
		"evals_per_s":     float64(p.evals) / busy,
		"op_ms.p50":       quantile(p.lat, 0.5),
		"op_ms.p90":       quantile(p.lat, 0.9),
		"cpu_s_per_op":    p.use.cpu.Seconds() / float64(p.ops),
		"alloc_mb_per_op": float64(p.use.alloc) / (1 << 20) / float64(p.ops),
		"max_rss_mb":      maxRSSMB(),
	}
	metrics, err := fill(e2eMetrics, vals)
	if err != nil {
		return nil, nil, err
	}
	details := map[string]any{
		"units": p.units, "ops": p.ops, "latency_samples": len(p.lat), "evals": p.evals,
		"wall_s": p.use.wall.Seconds(), "stolen_s": p.use.stolen.Seconds(), "busy_s": busy, "digests": p.digests,
	}
	if len(p.http) > 0 {
		details["http_ms.p50"] = quantile(p.http, 0.5)
		details["http_ms.p90"] = quantile(p.http, 0.9)
		details["http_samples"] = len(p.http)
	}
	return &result{Correct: p.failed == 0, Attempted: p.ops, Failed: p.failed, Metrics: metrics}, details, nil
}

// tracedRun measures the per-layer metrics: an untraced reference phase,
// the same units again with the recorder, seam wrappers and spans
// attached, then the probes.
func tracedRun(w *workload, seed uint64, dur time.Duration, prov provenance) (*result, map[string]any, error) {
	tr := newTracer()
	ins, _, err := setUp(w, seed, 1, tr)
	if err != nil {
		return nil, nil, err
	}
	ref := &phase{deadline: time.Now().Add(dur / 2)}
	err = ins.run(ref)
	var tp *phase
	if err == nil {
		tp = &phase{limit: ref.units, tr: tr}
		err = ins.run(tp)
	}
	var pr probes
	t := ins.target()
	if err == nil {
		pr, err = runProbes(t, t.setup.trainings+tp.counts.trainings > 0)
	}
	if cerr := ins.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, nil, err
	}
	reportErrors(ref)
	reportErrors(tp)
	failed := ref.failed + tp.failed
	// The seam wrappers must be transparent: the traced units' outputs are
	// the untraced units' outputs, byte for byte.
	for i := range ref.digests {
		if i >= len(tp.digests) || tp.digests[i] != ref.digests[i] {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: traced unit %d output differs from untraced\n", i)
		}
	}
	if tp.ops == 0 || ref.use.wall <= 0 {
		return nil, nil, errorf("%s completed no op in %v", w.name, dur)
	}
	vals := layerValues(ins.lanes(), t, ref, tp, pr, tr)
	metrics, err := fill(layerMetrics, vals)
	if err != nil {
		return nil, nil, err
	}
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", w.name, seed))
	if err := tr.write(path, prov); err != nil {
		return nil, nil, err
	}
	details := map[string]any{"units": tp.units, "ops": tp.ops, "spans_file": path, "self_ms": tr.selfTimes()}
	return &result{Correct: failed == 0, Attempted: ref.ops + tp.ops, Failed: failed, Metrics: metrics}, details, nil
}

func reportErrors(p *phase) {
	for _, err := range p.errs {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", err)
	}
}

// savePins writes the first digests of a pinSeed run as the workload's pins.
func savePins(path, workload string, seed uint64, p *phase) error {
	if seed != pinSeed {
		return errorf("pins are recorded at seed %d, not %d", pinSeed, seed)
	}
	if p.failed > 0 {
		return errorf("not pinning a run with %d failed ops", p.failed)
	}
	n := len(p.digests)
	if n > maxPins {
		n = maxPins
	}
	return writePins(path, workload, p.digests[:n])
}

// maxPins is how many leading op digests a workload pins.
const maxPins = 8

// layerValues assembles the per-layer metrics from the traced phase's
// counts, the tracer's seam statistics and the probes. Each *.share is
// count × probe time over the traced wall time times the workload's lanes.
func layerValues(lanes int, t probeTarget, ref, tp *phase, pr probes, tr *tracer) map[string]float64 {
	c := tp.counts
	wallMS := float64(tp.use.ran()) / 1e6
	laneMS := wallMS * float64(lanes)
	v := map[string]float64{}

	samples := 0.0
	if pr.rlEpochs > 0 {
		samples = float64(c.exchanges) / float64(pr.rlEpochs)
	}
	v["rl.sample_ms"] = pr.rlSampleMS
	v["rl.grad_ms"] = pr.rlGradMS
	v["rl.apply_ms"] = pr.rlApplyMS
	v["rl.grad_allocs"] = pr.rlGradAllocs
	v["rl.grad_kb"] = pr.rlGradKB
	v["rl.gradients"] = float64(c.exchanges)
	v["rl.share"] = (samples*pr.rlSampleMS + float64(c.exchanges)*(pr.rlGradMS+pr.rlApplyMS)) / laneMS

	v["space.hash_us"] = pr.hashUS
	v["space.compile_paper_us"] = pr.compilePaperUS
	v["space.compile_scaled_us"] = pr.compileScaledUS
	v["space.compile_allocs"] = pr.compileAllocs
	// Every submission hashes its key; every job also hashes for its
	// training stream and compiles at both dimension sets.
	v["space.share"] = (float64(c.results+c.jobs)*pr.hashUS + float64(c.jobs)*(pr.compilePaperUS+pr.compileScaledUS)) / 1000 / laneMS

	lookupS, lookups := tr.mean("evaluator.lookup")
	v["evaluator.lookups"] = float64(lookups)
	v["evaluator.lookup_ns"] = lookupS * 1e9
	v["evaluator.failed_evals"] = float64(c.failedEvals)
	v["evaluator.pool_parallelism"] = float64(c.trainings) * pr.trainMS / wallMS

	v["train.estimate_ms"] = pr.trainMS
	v["train.estimate_allocs"] = pr.trainAllocs
	v["train.estimate_mb"] = pr.trainMB
	v["train.trainings"] = float64(c.trainings + t.setup.trainings)
	v["train.share"] = float64(c.trainings) * pr.trainMS / laneMS

	v["hpc.events"] = float64(c.hpcEvents)
	v["balsam.jobs"] = float64(c.jobs)
	v["balsam.retries"] = float64(c.retries)
	v["balsam.job_us"] = pr.balsamJobUS
	v["balsam.share"] = float64(c.jobs) * pr.balsamJobUS / 1000 / laneMS

	v["search.results"] = float64(c.results)
	v["search.jobs"] = float64(c.jobs)
	v["search.cache_hit_frac"] = 0
	if c.results > 0 {
		v["search.cache_hit_frac"] = float64(c.cacheHits) / float64(c.results)
	}
	v["search.virtual_s"] = c.virtualS
	lookupShare := lookupS * 1000 * float64(lookups) / laneMS
	v["search.unattributed_frac"] = 1 - (v["rl.share"] + v["space.share"] + v["train.share"] + v["balsam.share"] + lookupShare)
	v["ps.exchanges"] = float64(c.exchanges)
	v["ps.sync_rounds"] = float64(c.syncRounds)

	syncs := tr.sampleSet("fsim.sync")
	v["nasbench.build_s"] = t.setup.build.Seconds()
	v["nasbench.archs_per_min"] = 0
	v["nasbench.wal_syncs"] = 0
	if t.setup.build > 0 {
		v["nasbench.archs_per_min"] = float64(t.setup.trainings) / t.setup.build.Minutes()
		v["nasbench.wal_syncs"] = float64(len(syncs))
	}
	v["nasbench.load_ms"] = pr.loadMS

	v["fsim.syncs"] = float64(len(syncs))
	v["fsim.sync_ms.p50"] = quantile(syncs, 0.5) * 1000
	v["fsim.sync_ms.p90"] = quantile(syncs, 0.9) * 1000
	v["fsim.write_mb"] = float64(tr.count("fsim.write_bytes")) / (1 << 20)
	v["fsim.renames"] = float64(tr.count("fsim.renames"))
	v["fsim.dir_syncs"] = float64(len(tr.sampleSet("fsim.dir_sync")))
	v["ckpt.checkpoint_kb"] = 0
	if n := tr.count("ckpt.writes"); n > 0 {
		v["ckpt.checkpoint_kb"] = float64(tr.count("ckpt.bytes")) / 1024 / float64(n)
	}

	v["campaign.allocations"] = float64(c.allocations)
	for _, r := range []string{"submit", "status", "log", "trace"} {
		v["campaign."+r+"_ms"] = quantile(tr.sampleSet("campaign."+r), 0.5) * 1000
	}
	v["campaign.log_kb"] = 0
	if c.logFetches > 0 {
		v["campaign.log_kb"] = float64(c.logBytes) / 1024 / float64(c.logFetches)
	}
	v["http_ms.p50"] = quantile(tp.http, 0.5)
	v["http_ms.p90"] = quantile(tp.http, 0.9)

	v["trace.events"] = float64(c.traceEvents)
	v["trace.dropped"] = float64(c.traceDropped)
	v["trace.overhead_frac"] = float64(tp.use.ran())/float64(ref.use.ran()) - 1
	v["candle.data_ms"] = float64(t.setup.data) / 1e6
	return v
}
