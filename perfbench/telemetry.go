package main

import (
	"encoding/json"
	"math"
	"os"
	"strconv"
	"sync"
	"time"

	"nasgo/internal/analytics"
)

// tracer is the traced run's host telemetry: spans recorded around the
// harness's own calls into each layer, plus counters and log-banded
// histograms for seams too hot for a span per call. Everything stays in
// memory until write. A nil *tracer records nothing, so the untraced run
// passes nil through the same code.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	hists   map[string]*hist
	samples map[string][]float64
	counts  map[string]int64
}

// span is one timed interval; Parent 0 marks a root (an op).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), hists: map[string]*hist{},
		samples: map[string][]float64{}, counts: map[string]int64{}}
}

func (t *tracer) ms(at time.Time) float64 { return float64(at.Sub(t.t0)) / 1e6 }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: t.ms(now)})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = t.ms(now)
}

// observe adds one duration to the named histogram and keeps the exact
// sample, for seams whose call count is bounded (fsyncs, HTTP requests).
func (t *tracer) observe(name string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.histLocked(name).record(d.Seconds())
	t.samples[name] = append(t.samples[name], d.Seconds())
}

// merge folds a histogram filled without the lock (one goroutine's hot
// seam) into the named histogram.
func (t *tracer) merge(name string, h *hist) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.histLocked(name).add(h)
}

func (t *tracer) histLocked(name string) *hist {
	h := t.hists[name]
	if h == nil {
		h = &hist{}
		t.hists[name] = h
	}
	return h
}

// add bumps a counter.
func (t *tracer) add(name string, n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counts[name] += n
}

func (t *tracer) count(name string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// sampleSet returns a copy of the exact samples of name, in seconds.
func (t *tracer) sampleSet(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.samples[name]...)
}

// mean returns the mean of the named histogram in seconds (0 when empty).
func (t *tracer) mean(name string) (float64, int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	h := t.hists[name]
	if h == nil || h.n == 0 {
		return 0, 0
	}
	return h.sum / float64(h.n), h.n
}

// selfTimes returns, per span name, the summed self time in ms: each
// span's duration minus the part its children cover.
func (t *tracer) selfTimes() map[string]float64 {
	child := map[int]float64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]float64{}
	for _, s := range t.spans {
		self[s.Name] += s.End - s.Start - child[s.ID]
	}
	return self
}

// write stores the spans, self times, counters and histograms as one JSON
// document.
func (t *tracer) write(path string, prov provenance) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	hists := map[string]map[string]int64{}
	for name, h := range t.hists {
		hists[name] = h.bands()
	}
	doc := struct {
		Provenance provenance                  `json:"provenance"`
		SelfMS     map[string]float64          `json:"self_ms"`
		Counts     map[string]int64            `json:"counts"`
		Histograms map[string]map[string]int64 `json:"histograms_s"`
		Spans      []span                      `json:"spans"`
	}{prov, t.selfTimes(), t.counts, hists, t.spans}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// hist is a log-banded histogram in the binstat style: one band per
// (decade, leading digit), so recording is a few float operations and no
// allocation, and a band reads as a range like "0.002..0.003".
type hist struct {
	n     int64
	sum   float64
	count [histDecades * 9]int64
}

const (
	histMinDecade = -9 // 1 ns
	histDecades   = 13 // up to 10^4 s
)

func (h *hist) record(v float64) {
	h.n++
	h.sum += v
	h.count[histBand(v)]++
}

func (h *hist) add(o *hist) {
	h.n += o.n
	h.sum += o.sum
	for i, c := range o.count {
		h.count[i] += c
	}
}

func histBand(v float64) int {
	if !(v >= math.Pow10(histMinDecade)) {
		return 0
	}
	e := int(math.Floor(math.Log10(v)))
	if e >= histMinDecade+histDecades {
		return len(hist{}.count) - 1
	}
	d := int(v / math.Pow10(e))
	if d < 1 {
		d = 1
	} else if d > 9 {
		d = 9
	}
	return (e-histMinDecade)*9 + d - 1
}

// bands returns the non-empty bands keyed by their range.
func (h *hist) bands() map[string]int64 {
	out := map[string]int64{}
	for i, c := range h.count {
		if c == 0 {
			continue
		}
		e, d := i/9+histMinDecade, i%9+1
		lo := float64(d) * math.Pow10(e)
		hi := float64(d+1) * math.Pow10(e)
		out[strconv.FormatFloat(lo, 'g', 3, 64)+".."+strconv.FormatFloat(hi, 'g', 3, 64)] = c
	}
	return out
}

// quantile returns the q-quantile of xs, or 0 for a seam the workload
// never called.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return analytics.Quantile(xs, q)
}
