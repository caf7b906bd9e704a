package main

import (
	"encoding/json"
	"os"
	"testing"

	"nasgo/internal/search"
)

// TestProbeShapesMatchTraffic asserts that every workload's probes run at
// the shape its traffic runs: the same space, the controller batch M, the
// Balsam node count, the training budget, and an architecture sample drawn
// from the traffic's space.
func TestProbeShapesMatchTraffic(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var cfg search.Config
			var trafficSpace string
			var target probeTarget
			switch w.name {
			case "replay-rl", "replay-swarm":
				r, err := newReplay(w, pinSeed, pinSeed) // no table build: the shape is all this test needs
				if err != nil {
					t.Fatal(err)
				}
				cfg, trafficSpace, target = w.shape.config(0, 1), r.sp.Name, r.target()
			case "live-search":
				ins, err := newLiveSearch(w, pinSeed, nil)
				if err != nil {
					t.Fatal(err)
				}
				l := ins.(*live)
				cfg, trafficSpace, target = w.shape.config(0, 1), l.sp.Name, l.target()
			case "campaign-http":
				c := &campaignHTTP{w: w, seed: pinSeed}
				spec := c.spec(0)
				_, sp, err := spec.Build()
				if err != nil {
					t.Fatal(err)
				}
				cfg, trafficSpace, target = spec.SearchConfig(), sp.Name, c.target()
				if cfg.Walltime != w.shape.walltime || cfg.Horizon != w.shape.horizon || cfg.Strategy != w.shape.strategies[0] {
					t.Errorf("campaign spec runs %+v, shape says %+v", cfg, w.shape)
				}
			default:
				t.Fatalf("no shape check for workload %s", w.name)
			}
			if target.sp.Name != trafficSpace {
				t.Errorf("probes use space %s, traffic searches %s", target.sp.Name, trafficSpace)
			}
			if target.shape.workers != cfg.WorkersPerAgent {
				t.Errorf("rl probe batch M = %d, traffic M = %d", target.shape.workers, cfg.WorkersPerAgent)
			}
			if target.shape.nodes() != cfg.Agents*cfg.WorkersPerAgent {
				t.Errorf("balsam probe nodes = %d, traffic nodes = %d", target.shape.nodes(), cfg.Agents*cfg.WorkersPerAgent)
			}
			if target.shape.usesController() != (cfg.Strategy == search.A3C || cfg.Strategy == search.A2C) {
				t.Errorf("rl probe enabled = %v for strategy %s", target.shape.usesController(), cfg.Strategy)
			}
			if target.trainEval.RealEpochs != cfg.Eval.RealEpochs || target.trainEval.RealBatchSize != cfg.Eval.RealBatchSize {
				t.Errorf("train probe budget %d epochs × batch %d, traffic %d × %d", target.trainEval.RealEpochs,
					target.trainEval.RealBatchSize, cfg.Eval.RealEpochs, cfg.Eval.RealBatchSize)
			}
			sp, err := w.shape.newSpace()
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range archSample(target.sp, derive(pinSeed, "probe-archs", 0), probeArchs) {
				if err := sp.CheckChoices(a); err != nil {
					t.Fatalf("probe architecture outside the traffic space: %v", err)
				}
			}
		})
	}
}

// TestCatalogMatchesBenchmarkJSON pins the harness's workload table and
// metric catalogs to BENCHMARK.json, which the benchmark's runner reads.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %s, harness %s", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the harness %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], harness %s [%s]", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, e2eMetrics)
	check("per_layer", spec.PerLayer, layerMetrics)
}
