package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// def names one reported metric and its unit. The two tables below are
// the benchmark's output contract and must match BENCHMARK.json.
type def struct{ name, unit string }

// endToEnd is what a run with --trace 0 reports, on every workload.
var endToEnd = []def{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"get_p50_ms", "ms"},
	{"get_p99_ms", "ms"},
	{"put_p50_ms", "ms"},
	{"catchup_s", "s"},
	{"rebuild_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer is what a run with --trace 1 reports, on every workload; a
// layer the workload does not reach reads 0.
var perLayer = []def{
	{"workload.gen_us", "us"},
	{"workload.hot1pct_share", "ratio"},
	{"workload.put_share", "ratio"},
	{"cluster.first_attempt_us", "us"},
	{"cluster.attempts_per_op", "count"},
	{"cluster.retries_per_op", "count"},
	{"cluster.quorum_failures", "count"},
	{"cluster.read_repairs", "count"},
	{"cluster.down_events", "count"},
	{"cache.hit_rate", "ratio"},
	{"cache.evictions", "count"},
	{"sockets.get_rtt_us", "us"},
	{"sockets.set_rtt_us", "us"},
	{"sockets.allocs_per_op", "count"},
	{"version.decode_ns", "ns"},
	{"version.decode_allocs", "count"},
	{"wal.append_sync_us", "us"},
	{"wal.appends_per_sync", "count"},
	{"wal.snapshot_ms", "ms"},
	{"wal.restart_ms", "ms"},
	{"storage.write_bytes_per_user_byte", "ratio"},
	{"antientropy.sync_rounds", "count"},
	{"antientropy.keys_repaired_per_diverged", "ratio"},
	{"antientropy.bytes_per_key", "B"},
	{"antientropy.streams", "count"},
	{"antientropy.stream_bytes_per_key", "B"},
	{"process.allocs_per_op", "count"},
	{"process.alloc_bytes_per_op", "B"},
	{"process.gc_cycles", "count"},
	{"process.syscr_per_op", "count"},
	{"process.syscw_per_op", "count"},
	{"trace.overhead_frac", "ratio"},
	{"trace.spans", "count"},
	{"trace.self.op_us", "us"},
	{"trace.self.get_us", "us"},
	{"trace.self.put_us", "us"},
	{"trace.self.sync_ms", "ms"},
	{"trace.self.kill_ms", "ms"},
	{"trace.self.phase_ms", "ms"},
}

// result runs the output checks and computes the run's metrics.
func (b *bench) result() (result, error) {
	var res result
	var gets, puts, first []time.Duration
	var mismatches int64
	var onOps, offOps int64
	for _, cl := range b.clients {
		res.Attempted += cl.attempted
		res.Failed += cl.failed
		mismatches += cl.mismatches
		if cl.firstBad != "" {
			b.fail("client %d: %s", cl.id, cl.firstBad)
		}
		gets = append(gets, cl.lat.get...)
		puts = append(puts, cl.lat.put...)
		first = append(first, cl.firstAttempt...)
		onOps += cl.onOps
		offOps += cl.offOps
	}
	if mismatches > 0 {
		b.fail("%d gets returned a value other than the last acked put", mismatches)
	}
	from, to := b.winFrom, b.winTo
	if down := from.delta(to, "cluster.down-events"); down > 0 {
		b.fail("%g nodes were declared down while serving", down)
	}
	ops := float64(len(gets) + len(puts))
	if ops == 0 {
		return res, fmt.Errorf("no measured ops")
	}

	vals := map[string]float64{}
	if !b.traced {
		vals["setup_s"] = median(b.setup).Seconds()
		vals["ops_per_s"] = median(b.rates)
		for _, q := range []struct {
			name    string
			samples []time.Duration
			q       float64
		}{{"get_p50_ms", gets, 0.50}, {"put_p50_ms", puts, 0.50}} {
			v, _, err := quantile(sortedCopy(q.samples), q.q)
			if err != nil {
				return res, fmt.Errorf("%s: %w", q.name, err)
			}
			vals[q.name] = ms(v)
		}
		p99s := make([]time.Duration, 0, len(b.sliceGets))
		for i, g := range b.sliceGets {
			v, _, err := quantile(sortedCopy(g), 0.99)
			if err != nil {
				return res, fmt.Errorf("get_p99_ms, second %d: %w", i, err)
			}
			p99s = append(p99s, v)
		}
		vals["get_p99_ms"] = ms(median(p99s))
		reportQuantiles("get", gets)
		reportQuantiles("put", puts)
		hits := from.delta(to, "cache.hits")
		fmt.Fprintf(os.Stderr, "kvperf: serving window: %.0f ops in %v, slice rates %.0f, cache hit rate %.3f\n",
			ops, to.at.Sub(from.at).Round(time.Millisecond), b.rates, ratio(hits, hits+from.delta(to, "cache.misses")))
		vals["catchup_s"] = median(b.rs.catchup).Seconds()
		vals["rebuild_s"] = median(b.rs.rebuild).Seconds()
		rss, err := peakRSSMB()
		if err != nil {
			return res, err
		}
		vals["peak_rss_mb"] = rss
		fmt.Fprintf(os.Stderr, "kvperf: setup %v, catch-up %v, rebuild %v\n", b.setup, b.rs.catchup, b.rs.rebuild)
	} else {
		self := b.tr.selfTimes()
		vals["workload.gen_us"] = us(self["gen"].mean)
		vals["workload.hot1pct_share"] = b.hotShare()
		vals["workload.put_share"] = float64(len(puts)) / ops
		vals["cluster.first_attempt_us"] = us(median(first))
		vals["cluster.attempts_per_op"] = from.delta(to, "pool.attempts") / ops
		vals["cluster.retries_per_op"] = from.delta(to, "pool.retries") / ops
		vals["cluster.quorum_failures"] = from.delta(to, "cluster.quorum-failures")
		vals["cluster.read_repairs"] = from.delta(to, "readrepair.writes")
		vals["cluster.down_events"] = from.delta(to, "cluster.down-events")
		hits := from.delta(to, "cache.hits")
		vals["cache.hit_rate"] = ratio(hits, hits+from.delta(to, "cache.misses"))
		vals["cache.evictions"] = from.delta(to, "cache.evictions")
		for n, v := range b.probes {
			vals[n] = v
		}
		rs := b.rs
		vals["wal.restart_ms"] = ms(median(rs.restart))
		vals["antientropy.sync_rounds"] = ratio(float64(rs.catchupPasses), float64(len(rs.catchup)))
		vals["antientropy.keys_repaired_per_diverged"] = ratio(float64(rs.catchupRepaired), float64(rs.catchupDiverged))
		vals["antientropy.bytes_per_key"] = ratio(float64(rs.catchupAEBytes), float64(rs.catchupRepaired))
		vals["antientropy.streams"] = ratio(float64(rs.rebuildStreams), float64(len(rs.rebuild)))
		vals["antientropy.stream_bytes_per_key"] = ratio(float64(rs.rebuildBytes), float64(rs.rebuildKeys))
		vals["process.allocs_per_op"] = float64(to.mallocs-from.mallocs) / ops
		vals["process.alloc_bytes_per_op"] = float64(to.bytes-from.bytes) / ops
		vals["process.gc_cycles"] = float64(to.gcs - from.gcs)
		vals["process.syscr_per_op"] = from.ioDelta(to, "syscr") / ops
		vals["process.syscw_per_op"] = from.ioDelta(to, "syscw") / ops
		if onOps > 0 && offOps > 0 {
			on := float64(onOps) / b.onTime.Seconds()
			off := float64(offOps) / b.offTime.Seconds()
			vals["trace.overhead_frac"] = 1 - on/off
		}
		vals["trace.spans"] = float64(b.tr.count())
		vals["trace.self.op_us"] = us(self["op"].mean)
		vals["trace.self.get_us"] = us(self["get"].mean)
		vals["trace.self.put_us"] = us(self["put"].mean)
		vals["trace.self.sync_ms"] = ms(self["sync"].mean)
		vals["trace.self.kill_ms"] = ms(self["kill"].mean)
		c, r := self["phase.catchup"], self["phase.rebuild"]
		if n := c.n + r.n; n > 0 {
			vals["trace.self.phase_ms"] = ms((c.mean*time.Duration(c.n) + r.mean*time.Duration(r.n)) / time.Duration(n))
		}
	}

	defs := endToEnd
	if b.traced {
		defs = perLayer
	}
	res.Metrics = map[string]metric{}
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	res.Correct = len(b.failures) == 0
	return res, nil
}

// hotShare is the measured share of ops that went to each client's
// hottest 1% of keys — the input property a read cache's gain depends on.
func (b *bench) hotShare() float64 {
	var hot, total float64
	for _, cl := range b.clients {
		counts := make([]int, 0, len(cl.keyOps))
		for _, n := range cl.keyOps {
			counts = append(counts, n)
			total += float64(n)
		}
		sort.Sort(sort.Reverse(sort.IntSlice(counts)))
		top := max(1, len(cl.keys)/100)
		for i := 0; i < top && i < len(counts); i++ {
			hot += float64(counts[i])
		}
	}
	return ratio(hot, total)
}

// reportQuantiles prints a latency distribution's percentiles, each
// with the sample count and how many samples lie beyond it, up to the
// highest percentile that has at least minBeyond beyond it.
func reportQuantiles(name string, samples []time.Duration) {
	sorted := sortedCopy(samples)
	line := fmt.Sprintf("kvperf: %s latency n=%d:", name, len(sorted))
	for _, q := range []float64{0.50, 0.90, 0.95, 0.99, 0.999} {
		v, beyond, err := quantile(sorted, q)
		if err != nil {
			break
		}
		line += fmt.Sprintf(" p%g=%.4fms(%d beyond)", q*100, ms(v), beyond)
	}
	fmt.Fprintln(os.Stderr, line)
}
