package main

// metricDef names one reported metric and its unit. The two catalogs below
// are the benchmark's contract with BENCHMARK.json: the untraced run prints
// exactly e2eMetrics, the traced run exactly layerMetrics, on every
// workload (TestCatalogMatchesBenchmarkJSON pins the correspondence).
type metricDef struct {
	name, unit string
}

// e2eMetrics are what a user of the system sees. Each is defined on every
// workload and is never 0.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"evals_per_s", "1/s"},
	{"op_ms.p50", "ms"},
	{"op_ms.p90", "ms"},
	{"cpu_s_per_op", "s"},
	{"alloc_mb_per_op", "MB"},
	{"max_rss_mb", "MB"},
}

// layerMetrics are the per-layer numbers of the traced run. A metric whose
// layer the workload does not exercise reads 0 (README.md says which).
var layerMetrics = []metricDef{
	{"rl.sample_ms", "ms"},
	{"rl.grad_ms", "ms"},
	{"rl.apply_ms", "ms"},
	{"rl.grad_allocs", "count"},
	{"rl.grad_kb", "KB"},
	{"rl.gradients", "count"},
	{"rl.share", "ratio"},

	{"space.hash_us", "us"},
	{"space.compile_paper_us", "us"},
	{"space.compile_scaled_us", "us"},
	{"space.compile_allocs", "count"},
	{"space.share", "ratio"},

	{"evaluator.lookups", "count"},
	{"evaluator.lookup_ns", "ns"},
	{"evaluator.failed_evals", "count"},
	{"evaluator.pool_parallelism", "ratio"},

	{"train.estimate_ms", "ms"},
	{"train.estimate_allocs", "count"},
	{"train.estimate_mb", "MB"},
	{"train.trainings", "count"},
	{"train.share", "ratio"},

	{"hpc.events", "count"},
	{"balsam.jobs", "count"},
	{"balsam.retries", "count"},
	{"balsam.job_us", "us"},
	{"balsam.share", "ratio"},

	{"search.results", "count"},
	{"search.jobs", "count"},
	{"search.cache_hit_frac", "ratio"},
	{"search.virtual_s", "s"},
	{"search.unattributed_frac", "ratio"},
	{"ps.exchanges", "count"},
	{"ps.sync_rounds", "count"},

	{"nasbench.build_s", "s"},
	{"nasbench.archs_per_min", "1/min"},
	{"nasbench.load_ms", "ms"},
	{"nasbench.wal_syncs", "count"},

	{"fsim.syncs", "count"},
	{"fsim.sync_ms.p50", "ms"},
	{"fsim.sync_ms.p90", "ms"},
	{"fsim.write_mb", "MB"},
	{"fsim.renames", "count"},
	{"fsim.dir_syncs", "count"},
	{"ckpt.checkpoint_kb", "KB"},

	{"campaign.allocations", "count"},
	{"campaign.submit_ms", "ms"},
	{"campaign.status_ms", "ms"},
	{"campaign.log_ms", "ms"},
	{"campaign.trace_ms", "ms"},
	{"campaign.log_kb", "KB"},
	{"http_ms.p50", "ms"},
	{"http_ms.p90", "ms"},

	{"trace.events", "count"},
	{"trace.dropped", "count"},
	{"trace.overhead_frac", "ratio"},
	{"candle.data_ms", "ms"},
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// fill builds the printed metric map from values keyed by name, insisting
// that values covers the catalog exactly: a metric missing from a workload
// is a harness bug, not a 0.
func fill(catalog []metricDef, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(catalog))
	for _, d := range catalog {
		v, ok := values[d.name]
		if !ok {
			return nil, errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	if len(values) != len(catalog) {
		for k := range values {
			if _, ok := out[k]; !ok {
				return nil, errorf("metric %s is not in the catalog", k)
			}
		}
	}
	return out, nil
}
