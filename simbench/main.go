// Command simbench measures the host cost of the simulated storage
// stack: how fast the simulator runs three workloads that stress
// different layers of it, how long it takes to set them up, and how
// much memory it uses. Modelled results (simulated throughput and
// latency) are checked and digested, not measured. README.md explains
// the workloads and metrics.
//
// Usage, from the repository root:
//
//	bash simbench/run.sh --workload fileserver --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics of untraced repetitions;
// --trace 1 alternates untraced and traced repetitions and prints the
// per-layer metrics. The last line of standard output is one JSON
// object; progress and the per-seam span table go to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"syscall"
	"time"
)

// minUntraced is the fewest untraced repetitions an untraced run
// takes, however short --seconds is, so that its medians (set-up time
// above all) rest on several samples.
const minUntraced = 3

func main() {
	name := flag.String("workload", "", "workload to run: fileserver, drain100k or replay")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "host seconds to keep starting repetitions for")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from traced repetitions")
	flag.Parse()
	if err := run(*name, uint64(*seed), *seconds, *traced, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds float64, traced int, stdout, stderr io.Writer) error {
	if traced != 0 && traced != 1 {
		return fmt.Errorf("--trace must be 0 or 1, not %d", traced)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, not %g", seconds)
	}
	sp, err := lookup(name, false)
	if err != nil {
		return err
	}
	res, err := measure(sp, seed, time.Duration(seconds*float64(time.Second)), traced == 1, stderr)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// measure runs repetitions of sp until budget has passed and enough
// repetitions exist, then reduces them to the printed result. Untraced
// runs report end-to-end metrics; traced runs alternate untraced and
// traced repetitions and report per-layer metrics.
func measure(sp *spec, seed uint64, budget time.Duration, traced bool, log io.Writer) (*result, error) {
	begin := time.Now()
	var plain, timed []*rep
	for i := 0; ; i++ {
		withSeams := traced && i%2 == 1
		r, err := runRep(sp, seed, withSeams)
		if err != nil {
			return nil, err
		}
		m := &r.model
		fmt.Fprintf(log, "%s seed=%d rep=%d traced=%v: wall %.3fs setup %.3fs run %.3fs cpu %.3fs | modelled %d ops, %.0f ops/s, p99 %.3fms, digest %s\n",
			sp.name, seed, i, withSeams, r.wall.Seconds(), r.setup.Seconds(), r.run.Seconds(), r.cpu.Seconds(),
			m.Counter.Ops, m.simOpsPerVirtualSec(), float64(m.P99)/1e6, r.digest)
		if withSeams {
			timed = append(timed, r)
		} else {
			plain = append(plain, r)
		}
		enough := len(plain) >= minUntraced
		if traced {
			enough = len(plain) >= 1 && len(timed) >= 1
		}
		if enough && time.Since(begin) >= budget {
			break
		}
	}

	res := &result{Correct: true, Metrics: map[string]metricValue{}}
	first := plain[0].digest
	for _, r := range append(plain, timed...) {
		res.Attempted += r.model.Counter.Ops + r.model.Counter.Errors
		res.Failed += r.model.Counter.Errors
		for _, b := range r.bad {
			fmt.Fprintf(log, "check failed (traced=%v): %s\n", r.traced, b)
			res.Correct = false
		}
		if r.digest != first {
			fmt.Fprintf(log, "check failed: digest %s (traced=%v) differs from %s\n", r.digest, r.traced, first)
			res.Correct = false
		}
	}
	if traced {
		if err := perLayerMetrics(res, plain, timed, log); err != nil {
			return nil, err
		}
		return res, nil
	}
	put := func(name string, v float64) { res.Metrics[name] = metricValue{v, unitOf(endToEnd, name)} }
	put("sim_ops_per_s", median(plain, func(r *rep) float64 {
		return float64(r.model.Counter.Ops) / r.run.Seconds()
	}))
	put("wall_s", median(plain, func(r *rep) float64 { return r.wall.Seconds() }))
	put("setup_s", median(plain, func(r *rep) float64 { return r.setup.Seconds() }))
	put("alloc_mb", median(plain, func(r *rep) float64 { return float64(r.alloc) / (1 << 20) }))
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	put("peak_rss_mb", rss)
	return res, nil
}

// perLayerMetrics fills res with the per-layer metrics of the traced
// repetitions. Host times are medians over them; counts come from
// the first, since every repetition models the same run.
func perLayerMetrics(res *result, plain, timed []*rep, log io.Writer) error {
	put := func(name string, v float64) { res.Metrics[name] = metricValue{v, unitOf(perLayer, name)} }
	secs := func(f func(r *rep) time.Duration) float64 {
		return median(timed, func(r *rep) float64 { return f(r).Seconds() })
	}
	r0 := timed[0]
	m := &r0.model

	put("core.build_s", secs(func(r *rep) time.Duration { return r.build }))
	put("workload.setup_s", secs(func(r *rep) time.Duration { return r.engineSetup }))
	put("workload.ops", float64(m.Counter.Ops))
	put("workload.errors", float64(m.Counter.Errors))
	opErr := ratio(float64(m.Counter.Errors), float64(m.Counter.Ops+m.Counter.Errors))
	if !res.Correct {
		opErr = 1
	}
	put("op_error_frac", opErr)

	cpu := map[string]int64{}
	for _, r := range timed {
		folded, err := foldProfile(r.profile)
		if err != nil {
			return err
		}
		for k, v := range folded {
			cpu[k] += v
		}
	}
	var total int64
	for _, v := range cpu {
		total += v
	}
	for _, l := range cpuLayers {
		put("cpu."+l, ratio(float64(cpu[l]), float64(total)))
	}
	put("runtime.gc_cycles", median(timed, func(r *rep) float64 { return float64(r.gcCycles) }))
	put("runtime.gc_pause_ms", median(timed, func(r *rep) float64 { return float64(r.gcPause) / 1e6 }))

	put("vfs.reads", float64(m.VFS.Reads))
	put("vfs.writes", float64(m.VFS.Writes))
	put("vfs.creates", float64(m.VFS.Creates))
	put("vfs.unlinks", float64(m.VFS.Unlinks))
	put("vfs.writeback_pages", float64(m.VFS.WritebackPages))
	put("vfs.throttle_stalls", float64(m.VFS.ThrottleStalls))

	t0 := r0.totals()
	put("cache.policy_calls", float64(sumSpans(t0.policy[:]).calls))
	put("cache.policy_busy_s", secs(func(r *rep) time.Duration { return sumSpans(r.totals().policy[:]).busy }))
	put("cache.hit_ratio", m.L1.HitRatio())
	put("cache.inserts", float64(m.L1.Inserts))
	put("cache.evictions", float64(m.L1.Evictions))
	put("cache.invalidations", float64(m.L1.Invalidations))

	put("fs.calls", float64(sumSpans(t0.fs[:]).calls))
	put("fs.busy_s", secs(func(r *rep) time.Duration { return sumSpans(r.totals().fs[:]).busy }))
	put("fs.resize_busy_s", secs(func(r *rep) time.Duration { return r.totals().fs[fsResize].busy }))

	put("device.submits", float64(t0.dev.calls))
	put("device.busy_s", secs(func(r *rep) time.Duration { return r.totals().dev.busy }))
	// Busy time is summed over the replica stacks' devices.
	put("device.virt_util", ratio(float64(m.Dev.BusyTime), float64(m.End-m.Start)*float64(len(r0.seams))))
	put("queue.completed", float64(m.Completed))
	put("queue.max_queued", float64(m.MaxQueued))
	put("queue.virt_wait_ms", ratio(float64(m.QueueWait), float64(m.Completed))/1e6)

	put("trace.records_decoded", float64(t0.records))
	put("trace.decode_busy_s", secs(func(r *rep) time.Duration { return r.totals().decode.busy }))
	put("trace.max_lag_ms", float64(m.MaxLag)/1e6)

	wall := func(rs []*rep) float64 { return median(rs, func(r *rep) float64 { return r.wall.Seconds() }) }
	put("trace_overhead_frac", wall(timed)/wall(plain)-1)

	t0.print(log)
	return nil
}

// median returns the median of f over rs.
func median(rs []*rep, f func(*rep) float64) float64 {
	vs := make([]float64, len(rs))
	for i, r := range rs {
		vs[i] = f(r)
	}
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// unitOf returns a catalogued metric's unit.
func unitOf(defs []metricDef, name string) string {
	i := slices.IndexFunc(defs, func(d metricDef) bool { return d.Name == name })
	if i < 0 {
		panic("simbench: uncatalogued metric " + name)
	}
	return defs[i].Unit
}

// peakRSSMiB reports this process's peak resident set.
func peakRSSMiB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}
