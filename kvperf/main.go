// Command kvperf is the replicated KV store's benchmark: one seeded run
// of one workload against a 3-node cluster built from internal/cluster,
// driven only through the public functions of internal/cluster,
// internal/sockets, internal/wal, internal/version and
// internal/workload. It prints every metric by name and unit on
// standard error, and one JSON result as the last line of standard
// output. It exits nonzero when an output check fails. README.md
// describes the workloads, their sizes and what each metric should
// move.
//
//	kvperf --workload serve-uniform --seed 7 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/sockets"
	"repro/internal/workload"
)

// gcPercent is pinned at Go's default so that an environment GOGC cannot
// change a run's GC schedule. The older scripts/perf grid ran at 400;
// here that made the peak RSS swing by a fifth between runs.
const gcPercent = 100

// maxClients caps the load generator's goroutines. No phase, preload
// included, runs more client goroutines than this or than the host has
// CPUs.
const maxClients = 2

// runLimit ends a run that has hung well inside the 180 s a run may take.
const runLimit = 170 * time.Second

// spec is one workload. Both share the cluster shape in clusterConfig;
// they differ in the cache, key popularity, op mix, value size, dataset
// size, and the recovery cluster's durability and cycle count. README.md
// gives the reasons for each choice.
type spec struct {
	// durable gives the recovery cluster a WAL on every node. The serving
	// cluster is always memory-only: durable puts follow the disk's fsync
	// latency, and on a shared disk that drifted so far between runs
	// that no serving figure taken over it was steady.
	durable bool
	cache   bool
	dist    workload.Dist
	// readFrac is the generator's get share; the rest are puts.
	readFrac  float64
	valueSize int
	// keysPerClient is each client's preloaded keyspace. Clients own
	// disjoint keyspaces, so every get has exactly one right answer.
	keysPerClient int
	// cycles is how many recovery cycles run after the serving window.
	cycles int
}

// divergent is D, the new keys written while the victim is down in each
// catch-up phase. D keys dirty about 1-exp(-D/4096) of the 4,096 Merkle
// buckets, 1.6% here: well under the 25% at which a pair sync switches
// to streaming, so catch-up takes span repair. Each repaired key costs a
// durable victim one serial fsync; with D=256 those fsyncs were most of
// a catch-up, and catchup_s followed the disk's drifting fsync latency.
const divergent = 64

// verifyKeys is how many older keys each recovery read-back re-reads,
// beside the phase's new keys.
const verifyKeys = 256

var workloads = map[string]spec{
	// The serving hot path with the cache bypassed; recovery by Merkle
	// span repair alone.
	"serve-uniform": {
		dist: workload.Uniform, readFrac: 0.95,
		valueSize: 64, keysPerClient: 10000,
		cycles: 8,
	},
	// Skewed traffic that the hot-key cache answers; recovery of durable
	// nodes, which replays and streams WALs.
	"zipf-cache": {
		durable: true, cache: true, dist: workload.Zipfian, readFrac: 0.5,
		valueSize: 256, keysPerClient: 5000,
		cycles: 48,
	},
}

// clusterConfig is the one place the benchmark configures the store.
// Slack heartbeats (100 ms / 600 ms) keep a GC pause or a scheduling
// stall from declaring a node down mid-run; hints are off so anti-entropy
// alone brings a restarted node back; hint expiry is off so its KEYS
// sweep never lands in a serving window.
func clusterConfig(s spec, durable bool, walRoot string, preAttempt func(string) func(string, int)) cluster.Config {
	cfg := cluster.Config{
		Nodes: 3, Replicas: 3, WriteQuorum: 2, ReadQuorum: 2,
		PoolSize:          2,
		HeartbeatInterval: 100 * time.Millisecond,
		HeartbeatTimeout:  600 * time.Millisecond,
		DisableHints:      true,
		HintTTL:           -1,
		HotKeyCache:       s.cache,
		// A lease long enough that a hot key stays cached between its
		// reads. At the 50 ms default the hit rate sat near one half and
		// the get median flipped between the cache-hit and quorum-read
		// modes from run to run.
		CacheLease:     time.Second,
		Durable:        durable,
		WALRoot:        walRoot,
		PoolPreAttempt: preAttempt,
	}
	// The inter-node protocol is chosen here and nowhere else, so retiring
	// the text protocol removes exactly this line.
	cfg.Proto = sockets.ProtoBinary
	return cfg
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "serve-uniform or zipf-cache")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs with spans and reports per-layer metrics instead of end-to-end ones")
	out := flag.String("out", filepath.Join(".bench_build", "kvperf"), "scratch directory for WALs and the span file")
	flag.Parse()
	s, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "kvperf: need --workload (serve-uniform|zipf-cache), --seconds >= 1, --trace 0|1\n")
		return 2
	}
	debug.SetGCPercent(gcPercent)
	time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "kvperf: run exceeded %v\n", runLimit)
		os.Exit(3)
	})
	fmt.Fprintf(os.Stderr, "kvperf: workload=%s seed=%d seconds=%d trace=%d GOGC=%d GOMAXPROCS=%d clients=%d\n",
		*name, *seed, *seconds, *trace, gcPercent, runtime.GOMAXPROCS(0), clientCount())

	dir := filepath.Join(*out, fmt.Sprintf("%s-%d-%d", *name, *seed, os.Getpid()))
	b, err := newBench(s, *seed, time.Duration(*seconds)*time.Second, *trace == 1, dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kvperf:", err)
		return 1
	}
	res, err := b.run()
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kvperf:", err)
		return 1
	}
	if b.traced {
		path := filepath.Join(*out, fmt.Sprintf("spans-%s.tsv", *name))
		if err := b.tr.write(path, fmt.Sprintf("workload=%s seed=%d GOGC=%d", *name, *seed, gcPercent)); err != nil {
			fmt.Fprintln(os.Stderr, "kvperf: writing spans:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "kvperf: %d spans written to %s\n", b.tr.count(), path)
	}
	printResult(res)
	if !res.Correct {
		return 1
	}
	return 0
}

func clientCount() int {
	return min(maxClients, runtime.NumCPU())
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line that ends a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func printResult(res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(os.Stderr, "  %-42s %14s %s\n", n, strconv.FormatFloat(m.Value, 'g', 6, 64), m.Unit)
	}
	fmt.Fprintf(os.Stderr, "  correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
	line, err := json.Marshal(res)
	if err != nil {
		panic(err) // a map of finite floats and strings always marshals
	}
	fmt.Println(string(line))
}
