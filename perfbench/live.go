package main

import (
	"runtime"

	"nasgo/internal/candle"
	"nasgo/internal/search"
	"nasgo/internal/space"
	"nasgo/internal/trace"
)

// live runs live A3C searches with real reward training. A search is far
// longer than a run, so it runs as a chain of walltime allocations (the
// nas-search -allocations path) and the run stops at an allocation
// boundary. A unit is one allocation; an op is one real training.
type live struct {
	w     *workload
	seed  uint64
	pins  pinFile
	bench *candle.Benchmark
	sp    *space.Space
	data  setupTimes
}

func newLiveSearch(w *workload, seed uint64, tr *tracer) (instance, error) {
	pins, err := loadPins(pinsJSON)
	if err != nil {
		return nil, err
	}
	bench, data := newBench(seed)
	sp, err := w.shape.newSpace()
	if err != nil {
		return nil, err
	}
	return &live{w: w, seed: seed, pins: pins, bench: bench, sp: sp, data: setupTimes{data: data}}, nil
}

func (l *live) run(p *phase) error {
	var rec *trace.Recorder
	var ck *search.Checkpoint
	// searchIdx numbers the current search; trained and seen are how many
	// of its trainings and results earlier allocations already counted.
	searchIdx, trained, seen := 0, 0, 0
	for p.more() {
		if p.tr != nil && ck == nil {
			rec = trace.NewRecorder(traceCapacity)
		}
		op := p.tr.begin("op.allocation", 0)
		m := readMeter()
		var log *search.Log
		var next *search.Checkpoint
		var err error
		if ck == nil {
			cfg := l.w.shape.config(0, derive(l.seed, "search", searchIdx))
			log, next, err = search.RunAllocationTraced(l.bench, l.sp, cfg, rec)
		} else {
			log, next, err = search.ResumeAllocationTraced(l.bench, l.sp, ck, rec)
		}
		use := m.since()
		p.tr.end(op)
		i := p.units
		p.units++
		if err != nil {
			return err
		}
		// Every submitted training has run by the end of an allocation: the
		// cut drains the pool, and in-flight jobs were trained at submit.
		done := log.Evaluations
		if next != nil {
			done += len(next.Eval.Inflight)
		}
		n := done - trained
		trained = done
		p.ops += n
		p.use.add(use)
		if n > 0 {
			p.lat = append(p.lat, float64(use.ran())/1e6/float64(n))
		}
		p.counts.trainings += n
		p.evals += len(log.Results) - seen
		seen = len(log.Results)
		if next == nil {
			p.counts.addLog(log)
			searchIdx, trained, seen = searchIdx+1, 0, 0
			if rec != nil {
				countEvents(&p.counts, rec.Events(), rec.Dropped())
			}
		}
		if err := l.check(p, i, log); err != nil {
			p.fail(max(n, 1), err)
		}
		ck = next
	}
	if ck != nil {
		// The run stopped mid-search: count what the partial log holds.
		p.counts.addLog(ck.Partial)
		if rec != nil {
			countEvents(&p.counts, rec.Events(), rec.Dropped())
		}
	}
	return nil
}

func (l *live) check(p *phase, i int, log *search.Log) error {
	d, err := logDigest(log)
	if err != nil {
		return err
	}
	p.setDigest(i, d)
	if err := checkLog(log, true); err != nil {
		return err
	}
	return checkPin(l.pins, l.w.name, l.seed, i, d)
}

func (l *live) target() probeTarget {
	return probeTarget{bench: l.bench, sp: l.sp, shape: l.w.shape, seed: l.seed, setup: l.data,
		trainEval: l.w.shape.trainConfig(l.seed)}
}

// lanes is the training pool's size (Eval.Workers 0 is GOMAXPROCS).
func (l *live) lanes() int { return runtime.GOMAXPROCS(0) }

func (l *live) close() error { return nil }
