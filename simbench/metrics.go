package main

// metricDef is one reported metric. BENCHMARK.json at the repository
// root lists the same names and units, with each metric's direction
// and, for end-to-end metrics, its regression bound; the tests hold
// the two in step.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics of an untraced run (--trace 0): the host
// cost of simulating a workload, as a user of the simulator sees it.
// Modelled (virtual-time) results are checked and digested instead.
var endToEnd = []metricDef{
	{"sim_ops_per_s", "1/s"},
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"alloc_mb", "MiB"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the metrics of a traced run (--trace 1). cpu.* are
// shares of the traced repetitions' CPU profile folded by package;
// *_busy_s are host seconds inside a wrapped seam; virt_* and the
// plain counts are modelled results, which a change that only speeds
// up the simulator must leave unchanged.
var perLayer = []metricDef{
	{"core.build_s", "s"},
	{"workload.setup_s", "s"},
	{"workload.ops", "count"},
	{"workload.errors", "count"},
	{"op_error_frac", "frac"},

	{"cpu.sim", "frac"},
	{"cpu.runtime_sched", "frac"},
	{"cpu.gc", "frac"},
	{"cpu.workload", "frac"},
	{"cpu.other", "frac"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},

	{"cpu.vfs", "frac"},
	{"vfs.reads", "count"},
	{"vfs.writes", "count"},
	{"vfs.creates", "count"},
	{"vfs.unlinks", "count"},
	{"vfs.writeback_pages", "count"},
	{"vfs.throttle_stalls", "count"},

	{"cpu.cache", "frac"},
	{"cache.policy_calls", "count"},
	{"cache.policy_busy_s", "s"},
	{"cache.hit_ratio", "frac"},
	{"cache.inserts", "count"},
	{"cache.evictions", "count"},
	{"cache.invalidations", "count"},

	{"cpu.fs", "frac"},
	{"fs.calls", "count"},
	{"fs.busy_s", "s"},
	{"fs.resize_busy_s", "s"},

	{"cpu.device", "frac"},
	{"device.submits", "count"},
	{"device.busy_s", "s"},
	{"device.virt_util", "ratio"},
	{"queue.completed", "count"},
	{"queue.max_queued", "count"},
	{"queue.virt_wait_ms", "ms"},

	{"cpu.trace", "frac"},
	{"trace.records_decoded", "count"},
	{"trace.decode_busy_s", "s"},
	{"trace.max_lag_ms", "ms"},

	{"trace_overhead_frac", "frac"},
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}
