package main

import (
	"os"
	"path/filepath"
	"time"

	"nasgo/internal/candle"
	"nasgo/internal/evaluator"
	"nasgo/internal/fsim"
	"nasgo/internal/nasbench"
	"nasgo/internal/search"
	"nasgo/internal/space"
	"nasgo/internal/trace"
)

// replay runs table-served searches back to back: replay-rl over a reward
// table it builds cold at set-up, replay-swarm over synthetic rewards.
type replay struct {
	w    *workload
	seed uint64
	// dataSeed is what the data and replay-rl's table derive from.
	dataSeed uint64
	pins     pinFile
	bench    *candle.Benchmark
	sp       *space.Space
	src      evaluator.RewardSource
	eval     evaluator.Config // the table's binding configuration
	// dir holds replay-rl's table; tablePath is the finished artefact.
	dir, tablePath string
	setupTimes     setupTimes
}

// setupTimes records what an instance's set-up spent, for the traced run.
type setupTimes struct {
	data, build time.Duration
	trainings   int
}

// tableSeed fixes replay-rl's data and reward table across workload seeds.
// Like a NAS-Bench table, the table is the benchmark's fixed artefact and
// the workload seed picks the searches replayed against it: a table drawn
// per seed would let one table's reward landscape (how soon its searches
// converge) swing a whole run's search rate by a quarter.
const tableSeed = 1

func newReplayRL(w *workload, seed uint64, tr *tracer) (instance, error) {
	r, err := newReplay(w, seed, tableSeed)
	if err != nil {
		return nil, err
	}
	r.dir, err = os.MkdirTemp(scratchDir, "table-")
	if err != nil {
		return nil, err
	}
	var fsys fsim.FS = fsim.OS
	if tr != nil {
		fsys = timedFS{fsim.OS, tr}
	}
	build := w.shape.trainConfig(tableSeed)
	build.Workers = 0 // the pool trains on every core
	c := readClock()
	rep, err := nasbench.Build(nasbench.BuildConfig{Bench: r.bench, Space: r.sp, Eval: build, Dir: r.dir, FS: fsys})
	if err != nil {
		r.close()
		return nil, err
	}
	if !rep.Done || rep.Trained != rep.Total {
		r.close()
		return nil, errorf("table build trained %d of %d", rep.Trained, rep.Total)
	}
	tbl, err := nasbench.ReadTableFS(fsys, rep.TablePath)
	if err != nil {
		r.close()
		return nil, err
	}
	r.setupTimes.build = c.ran()
	r.setupTimes.trainings = rep.Trained
	r.tablePath = rep.TablePath
	r.src = tbl
	r.eval = tbl.Meta.Eval
	r.eval.Workers = 1
	return r, nil
}

func newReplaySwarm(w *workload, seed uint64, tr *tracer) (instance, error) {
	r, err := newReplay(w, seed, seed)
	if err != nil {
		return nil, err
	}
	r.src = synthSource{derive(seed, "rewards", 0)}
	r.eval = evaluator.Config{BenchSeed: derive(seed, "bench", 0), Workers: 1}
	return r, nil
}

// newReplay generates the data from dataSeed and builds the space.
func newReplay(w *workload, seed, dataSeed uint64) (*replay, error) {
	pins, err := loadPins(pinsJSON)
	if err != nil {
		return nil, err
	}
	bench, data := newBench(dataSeed)
	sp, err := w.shape.newSpace()
	if err != nil {
		return nil, err
	}
	return &replay{w: w, seed: seed, dataSeed: dataSeed, pins: pins, bench: bench, sp: sp,
		setupTimes: setupTimes{data: data}}, nil
}

func (r *replay) run(p *phase) error {
	var rec *trace.Recorder
	if p.tr != nil {
		rec = trace.NewRecorder(traceCapacity)
	}
	for i := p.units; p.more(); i = p.units {
		cfg := r.w.shape.config(i, derive(r.seed, "search", i))
		cfg.Eval = r.eval
		src := r.src
		var ts *timedSource
		if p.tr != nil {
			ts = &timedSource{src: r.src}
			src = ts
			rec.Reset()
		}
		op := p.tr.begin("op.search", 0)
		m := readMeter()
		log, err := search.RunReplayTraced(r.bench, r.sp, cfg, rec, src)
		use := m.since()
		p.tr.end(op)
		p.units++
		p.ops++
		if err != nil {
			p.fail(1, err)
			continue
		}
		p.use.add(use)
		p.lat = append(p.lat, float64(use.ran())/1e6)
		p.evals += len(log.Results)
		p.counts.addLog(log)
		if ts != nil {
			p.tr.merge("evaluator.lookup", &ts.h)
			if ts.h.n != int64(log.Evaluations) {
				p.fail(1, errorf("search %d made %d table lookups for %d jobs", i, ts.h.n, log.Evaluations))
				continue
			}
			countEvents(&p.counts, rec.Events(), rec.Dropped())
		}
		if err := r.check(p, i, log); err != nil {
			p.fail(1, err)
		}
	}
	return nil
}

// check digests op i's log and verifies it.
func (r *replay) check(p *phase, i int, log *search.Log) error {
	d, err := logDigest(log)
	if err != nil {
		return err
	}
	p.setDigest(i, d)
	if err := checkLog(log, false); err != nil {
		return err
	}
	if len(log.Results) == 0 {
		return errorf("search %d delivered no results", i)
	}
	return checkPin(r.pins, r.w.name, r.seed, i, d)
}

func (r *replay) target() probeTarget {
	return probeTarget{bench: r.bench, sp: r.sp, shape: r.w.shape, seed: r.seed, tablePath: r.tablePath,
		setup: r.setupTimes, trainEval: r.w.shape.trainConfig(r.dataSeed)}
}

// lanes is the one client's training pool size (replay forces one worker).
func (r *replay) lanes() int { return r.eval.Workers }

func (r *replay) close() error {
	if r.dir == "" {
		return nil
	}
	return os.RemoveAll(r.dir)
}

// traceCapacity bounds a traced op's event ring. A swarm search emits
// about 0.6M events; trace.dropped reports any overflow.
const traceCapacity = 1 << 20

// countEvents folds a traced op's events and overflow count into c,
// leaving out the host-dependent pool category.
func countEvents(c *layerCounts, events []trace.Event, dropped int64) {
	for _, ev := range events {
		switch ev.Cat {
		case trace.CatPool:
			continue
		case trace.CatSim:
			c.hpcEvents++
		}
		c.traceEvents++
	}
	c.traceDropped += dropped
}

// scratchDir is where instances keep their files: a per-process directory
// under the checkout's build directory, removed on exit.
var scratchDir = filepath.Join(".bench_build", "run")
