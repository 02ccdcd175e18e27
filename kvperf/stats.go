package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
)

// failedOp is the latency recorded for an op that failed: it sorts
// beyond every real sample, so a failure counts as missing any limit.
const failedOp = time.Duration(math.MaxInt64)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported.
const minBeyond = 10

// rateSlice is the length of the serving window's time slices.
// ops_per_s is the median of the slices' rates, so a stall that spoils a
// few seconds of a run does not move the run's figure.
const rateSlice = time.Second

// quantile returns the exact q-quantile (nearest rank) of sorted
// samples and how many samples lie beyond it. It refuses a quantile
// with fewer than minBeyond samples beyond it, or one that falls on a
// failed op.
func quantile(sorted []time.Duration, q float64) (time.Duration, int, error) {
	n := len(sorted)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	beyond := n - rank
	if beyond < minBeyond {
		return 0, beyond, fmt.Errorf("p%g of %d samples has only %d beyond it (need %d)", q*100, n, beyond, minBeyond)
	}
	v := sorted[rank-1]
	if v == failedOp {
		return 0, beyond, fmt.Errorf("p%g of %d samples falls on a failed op", q*100, n)
	}
	return v, beyond, nil
}

func sortedCopy[T time.Duration | float64](xs []T) []T {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// median of a sample set: per-layer timings, the repeated set-up and
// recovery timings, and the serving window's slice rates. It is 0 for
// an empty set, a layer the workload did not reach.
func median[T time.Duration | float64](xs []T) T {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when nothing was attempted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// procIO reads the process's I/O accounting from /proc/self/io.
func procIO() map[string]float64 {
	out := map[string]float64{}
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return out // not Linux: the I/O per-layer figures read 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = v
		}
	}
	return out
}

// peakRSSMB reads the resident-set high-water mark (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// snapshot is the process and cluster counters at one instant; the
// per-layer counts are deltas between two snapshots. Deltas are only
// taken across spans in which no node restarts: a restarted node's pool
// counts from zero again.
type snapshot struct {
	at       time.Time
	counters map[string]float64
	io       map[string]float64
	mallocs  uint64
	bytes    uint64
	gcs      uint32
}

func takeSnapshot(c *cluster.Cluster) snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := snapshot{at: time.Now(), counters: map[string]float64{}, io: procIO(),
		mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcs: ms.NumGC}
	for _, cs := range []interface {
		Names() []string
		Get(string) (float64, bool)
	}{c.Counters(), c.PoolCounters()} {
		for _, n := range cs.Names() {
			v, _ := cs.Get(n)
			s.counters[n] = v
		}
	}
	return s
}

// delta is one counter's change from s to later.
func (s snapshot) delta(later snapshot, name string) float64 {
	return later.counters[name] - s.counters[name]
}

// ioDelta is one /proc/self/io field's change from s to later.
func (s snapshot) ioDelta(later snapshot, name string) float64 {
	return later.io[name] - s.io[name]
}
