package main

import (
	"net/http"
	"path/filepath"
	"strings"
	"time"

	"nasgo/internal/evaluator"
	"nasgo/internal/fsim"
)

// This file holds the seam wrappers the traced run attaches. Each forwards
// every call unchanged and only observes it: seams_test.go proves a wrapped
// run's log and store artefacts are byte-identical to an unwrapped run's.

// timedSource wraps a reward source, counting and timing every lookup.
// A search calls it from one goroutine, so the histogram needs no lock.
type timedSource struct {
	src evaluator.RewardSource
	h   hist
}

func (s *timedSource) Metric(key string) (float64, bool) {
	t := time.Now()
	v, ok := s.src.Metric(key)
	s.h.record(time.Since(t).Seconds())
	return v, ok
}

// synthSource is replay-swarm's reward source: a deterministic metric per
// architecture key, drawn from the workload seed, covering every key of
// the full space.
type synthSource struct{ seed uint64 }

func (s synthSource) Metric(key string) (float64, bool) {
	// R² in [-0.2, 0.6): the band real Combo rewards occupy.
	return float64(derive(s.seed, key, 0)>>11)/float64(1<<53)*0.8 - 0.2, true
}

// timedFS wraps a filesystem, timing file and directory syncs and counting
// written bytes and renames.
type timedFS struct {
	fsim.FS
	tr *tracer
}

func (f timedFS) Create(name string) (fsim.File, error) {
	file, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return timedFile{file, f.tr}, nil
}

func (f timedFS) CreateTemp(dir, pattern string) (fsim.File, error) {
	file, err := f.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return timedFile{file, f.tr}, nil
}

func (f timedFS) Rename(oldpath, newpath string) error {
	f.tr.add("fsim.renames", 1)
	return f.FS.Rename(oldpath, newpath)
}

func (f timedFS) SyncDir(dir string) error {
	t := time.Now()
	err := f.FS.SyncDir(dir)
	f.tr.observe("fsim.dir_sync", time.Since(t))
	return err
}

type timedFile struct {
	fsim.File
	tr *tracer
}

func (f timedFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.tr.add("fsim.write_bytes", int64(n))
	if isCheckpoint(f.Name()) {
		f.tr.add("ckpt.bytes", int64(n))
	}
	return n, err
}

func (f timedFile) Sync() error {
	t := time.Now()
	err := f.File.Sync()
	f.tr.observe("fsim.sync", time.Since(t))
	if isCheckpoint(f.Name()) {
		f.tr.add("ckpt.writes", 1)
	}
	return err
}

// isCheckpoint reports whether name is a campaign search checkpoint or the
// temp file ckpt.AtomicWrite stages it in.
func isCheckpoint(name string) bool {
	return strings.HasPrefix(filepath.Base(name), "search.ckpt")
}

// timedHandler wraps the campaign HTTP handler, recording each request's
// server-side time under campaign.<route>.
func timedHandler(h http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t := time.Now()
		h.ServeHTTP(w, r)
		tr.observe("campaign."+route(r), time.Since(t))
	})
}

// route names the API endpoint a request addresses.
func route(r *http.Request) string {
	parts := strings.Split(strings.Trim(r.URL.Path, "/"), "/")
	switch {
	case r.Method == http.MethodPost && len(parts) == 1 && parts[0] == "campaigns":
		return "submit"
	case r.Method == http.MethodGet && len(parts) == 2 && parts[0] == "campaigns":
		return "status"
	case r.Method == http.MethodGet && len(parts) == 3 && parts[2] == "log":
		return "log"
	case r.Method == http.MethodGet && len(parts) == 3 && parts[2] == "trace":
		return "trace"
	}
	return "other"
}
