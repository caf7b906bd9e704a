package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"nasgo/internal/evaluator"
	"nasgo/internal/fsim"
	"nasgo/internal/nasbench"
	"nasgo/internal/search"
	"nasgo/internal/trace"
)

// TestWrappedReplayByteIdentical proves the replay seams transparent: a
// table built through timedFS is byte-identical to one built through the
// plain filesystem, and a search replayed through timedSource with a trace
// recorder attached writes a log byte-identical to the plain replay.
func TestWrappedReplayByteIdentical(t *testing.T) {
	bench, _ := newBench(pinSeed)
	sp := nasbench.ComboNano()
	eval := evaluator.Config{BenchSeed: 7, Workers: 1}
	build := func(fsys fsim.FS) (*nasbench.Table, []byte) {
		dir := t.TempDir()
		rep, err := nasbench.Build(nasbench.BuildConfig{Bench: bench, Space: sp, Eval: eval, Dir: dir, FS: fsys})
		if err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(rep.TablePath)
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := nasbench.ReadTable(rep.TablePath)
		if err != nil {
			t.Fatal(err)
		}
		return tbl, raw
	}
	tr := newTracer()
	tbl, plainRaw := build(fsim.OS)
	_, wrappedRaw := build(timedFS{fsim.OS, tr})
	if !bytes.Equal(plainRaw, wrappedRaw) {
		t.Error("table built through timedFS differs from the plain build")
	}
	if tr.count("fsim.write_bytes") == 0 || len(tr.sampleSet("fsim.sync")) == 0 {
		t.Error("timedFS observed no writes or syncs during a table build")
	}

	for i, strategy := range []string{search.A3C, search.A2C, search.RDM} {
		cfg := search.Config{Strategy: strategy, Agents: 2, WorkersPerAgent: 2, Horizon: 600, Seed: uint64(i + 1),
			Eval: tbl.Meta.Eval}
		plain, err := search.RunReplay(bench, sp, cfg, tbl)
		if err != nil {
			t.Fatal(err)
		}
		ts := &timedSource{src: tbl}
		wrapped, err := search.RunReplayTraced(bench, sp, cfg, trace.NewRecorder(traceCapacity), ts)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(logJSON(t, plain), logJSON(t, wrapped)) {
			t.Errorf("%s: wrapped replay log differs from the plain replay", strategy)
		}
		if ts.h.n != int64(plain.Evaluations) {
			t.Errorf("%s: timedSource saw %d lookups for %d jobs", strategy, ts.h.n, plain.Evaluations)
		}
	}
}

// TestWrappedCampaignArtifactsByteIdentical runs the campaign-http
// workload's first campaign through a plain server and through one with
// timedFS under the store and timedHandler over the API: the store's meta
// and log files and the served log must be byte-identical, and the search
// checkpoint identical in content.
func TestWrappedCampaignArtifactsByteIdentical(t *testing.T) {
	setScratch(t)
	w, err := lookupWorkload("campaign-http")
	if err != nil {
		t.Fatal(err)
	}
	c := &campaignHTTP{w: w, seed: pinSeed, clients: 1}
	run := func(tr *tracer) (map[string][]byte, opResult) {
		srv, err := startServer(tr)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.stop()
		o := c.op(&http.Client{}, srv.base, 0, tr)
		if o.err != nil {
			t.Fatal(o.err)
		}
		files := map[string][]byte{}
		err = filepath.WalkDir(srv.dir, func(p string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			rel, _ := filepath.Rel(srv.dir, p)
			if d.Name() != "search.ckpt" {
				files[rel], err = os.ReadFile(p)
				return err
			}
			// A checkpoint's gob payload encodes maps in Go's random
			// iteration order, so its bytes differ between two plain runs
			// too; compare its decoded content in canonical JSON instead.
			ck, err := search.LoadCheckpoint(p)
			if err == nil {
				files[rel], err = json.Marshal(ck)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return files, o
	}
	tr := newTracer()
	plain, plainOp := run(nil)
	wrapped, wrappedOp := run(tr)
	if len(plain) == 0 || len(plain) != len(wrapped) {
		t.Fatalf("store file sets differ: %d plain, %d wrapped", len(plain), len(wrapped))
	}
	for name, b := range plain {
		if !bytes.Equal(b, wrapped[name]) {
			t.Errorf("store artefact %s differs between plain and wrapped servers", name)
		}
	}
	if !bytes.Equal(logJSON(t, plainOp.log), logJSON(t, wrappedOp.log)) {
		t.Error("served campaign log differs between plain and wrapped servers")
	}
	if tr.count("ckpt.writes") == 0 || len(tr.sampleSet("campaign.status")) == 0 {
		t.Error("the wrappers observed no checkpoint write or status request")
	}
}

func logJSON(t *testing.T, l *search.Log) []byte {
	t.Helper()
	b, err := json.Marshal(l)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// setScratch points the instances' scratch directory at a test temp dir.
func setScratch(t *testing.T) {
	t.Helper()
	old := scratchDir
	scratchDir = t.TempDir()
	t.Cleanup(func() { scratchDir = old })
}
