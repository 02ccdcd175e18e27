package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/workload"
)

// setups is how many times a run starts and preloads a cluster; setup_s
// is their median and the last one is measured.
const setups = 3

// opLatencies holds one latency per op, failed ops as failedOp.
type opLatencies struct {
	get, put []time.Duration
}

// client is one closed-loop load goroutine's state. Each client owns a
// disjoint keyspace (its keys carry the prefix "c<id>-"), so the right
// answer to every get is that client's last acked put of the key.
type client struct {
	id   int
	wl   *workload.Workload
	gen  *workload.Gen
	rng  *rand.Rand
	rec  *recorder
	keys []string // owned keys: the preloaded ones first, then new ones
	// preload is how many of keys the set-up loads.
	preload int
	want    map[string]string
	// unsure marks keys whose last put failed: the put may or may not
	// have landed, so reads are not checked until the next acked put.
	unsure map[string]bool

	// lat holds the serving window's ops; other ops (recovery traffic,
	// the final read-back) are checked, not reported.
	lat               opLatencies
	attempted, failed int64
	mismatches        int64
	firstBad          string
	opSeq             int64
	verifyPos         int
	onOps, offOps     int64 // measured ops started with tracing on / off
	// sliceOps counts the serving window's ops per rateSlice of time, and
	// getEnds[i] is len(lat.get) after the last op of slice i.
	sliceOps []int64
	getEnds  []int
	keyOps   map[string]int

	// Set around each cluster call for the PoolPreAttempt hook: the key
	// in flight, when the call started (ns since the tracer started),
	// and the delay to its first replica attempt once the hook saw it.
	callKey      atomic.Pointer[string]
	callStart    atomic.Int64
	firstWait    atomic.Int64
	firstAttempt []time.Duration
}

type bench struct {
	spec    spec
	seconds time.Duration
	traced  bool
	dir     string
	tr      *tracer
	rec     *recorder // the coordinating goroutine's spans
	c       *cluster.Cluster
	clients []*client
	setup   []time.Duration
	// winFrom and winTo bracket the serving window.
	winFrom, winTo  snapshot
	onTime, offTime time.Duration
	// rates holds the serving window's throughput in each rateSlice;
	// ops_per_s is their median.
	rates []float64
	// sliceGets holds the serving window's get latencies of each
	// rateSlice; get_p99_ms is the median of the slices' p99s.
	sliceGets [][]time.Duration
	rs        recoveryStats
	probes    map[string]float64
	failures  []string
}

func newBench(s spec, seed int64, seconds time.Duration, traced bool, dir string) (*bench, error) {
	b := &bench{spec: s, seconds: seconds, traced: traced, dir: dir,
		tr: newTracer()}
	b.rec = b.tr.recorder()
	for id := 0; id < clientCount(); id++ {
		wl, err := workload.New(workload.Config{
			Keys: s.keysPerClient, Dist: s.dist, ReadFrac: s.readFrac,
			ValueMin: s.valueSize, ValueMax: s.valueSize,
			KeyPrefix: fmt.Sprintf("c%d-", id), Seed: seed<<1 | 1,
		})
		if err != nil {
			return nil, err
		}
		cl := &client{
			id: id, wl: wl, gen: wl.Gen(id), rec: b.tr.recorder(),
			rng:    rand.New(rand.NewSource(seed*1000003 + int64(id)*7919 + 17)),
			want:   map[string]string{},
			unsure: map[string]bool{},
			keyOps: map[string]int{},
		}
		for _, k := range wl.Keys() {
			cl.keys = append(cl.keys, k)
			cl.want[k] = value(cl.rng, s.valueSize)
		}
		cl.preload = len(cl.keys)
		b.clients = append(b.clients, cl)
	}
	return b, nil
}

const valueAlphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"

func value(rng *rand.Rand, size int) string {
	buf := make([]byte, size)
	for i := range buf {
		buf[i] = valueAlphabet[rng.Intn(len(valueAlphabet))]
	}
	return string(buf)
}

// fail records a failed output check; the run then reports
// correct=false and exits nonzero.
func (b *bench) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	fmt.Fprintln(os.Stderr, "kvperf: check failed:", msg)
	b.failures = append(b.failures, msg)
}

// parallel runs fn once per client, each on its own goroutine, and
// waits for all of them.
func (b *bench) parallel(fn func(cl *client)) {
	var wg sync.WaitGroup
	for _, cl := range b.clients {
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			fn(cl)
		}(cl)
	}
	wg.Wait()
}

// preAttempt returns the PoolPreAttempt hook of the traced run, nil
// otherwise. It sees each wire attempt's request text ("GET <key>",
// "SETV <key>"); on the first attempt for the key a client has in
// flight it records the delay since that client's call began.
func (b *bench) preAttempt() func(string) func(string, int) {
	if !b.traced {
		return nil
	}
	hook := func(req string, attempt int) {
		if attempt != 1 || !b.tr.on.Load() {
			return
		}
		_, key, ok := strings.Cut(req, " ")
		if !ok || !strings.HasPrefix(key, "c") {
			return
		}
		id, _, ok := strings.Cut(key[1:], "-")
		if !ok {
			return
		}
		n, err := strconv.Atoi(id)
		if err != nil || n < 0 || n >= len(b.clients) {
			return
		}
		cl := b.clients[n]
		if k := cl.callKey.Load(); k == nil || *k != key {
			return
		}
		cl.firstWait.CompareAndSwap(0, int64(time.Since(b.tr.t0))-cl.callStart.Load())
	}
	return func(string) func(string, int) { return hook }
}

// setupOnce starts a cluster, durable with its WALs under root or
// memory-only, and preloads every client's keys, each client loading its
// own keys with their current values.
func (b *bench) setupOnce(ctx context.Context, durable bool, root string) (*cluster.Cluster, time.Duration, error) {
	start := time.Now()
	c, err := cluster.New(clusterConfig(b.spec, durable, root, b.preAttempt()))
	if err != nil {
		return nil, 0, err
	}
	errs := make([]error, len(b.clients))
	b.parallel(func(cl *client) {
		for _, k := range cl.keys[:cl.preload] {
			if err := c.PutCtx(ctx, k, cl.want[k]); err != nil {
				errs[cl.id] = fmt.Errorf("preload: %w", err)
				return
			}
		}
	})
	if err := errors.Join(errs...); err != nil {
		c.Close()
		return nil, 0, err
	}
	return c, time.Since(start), nil
}

// do runs one op through the cluster, checks a get against the
// client's expected value, and records its latency in lat.
func (b *bench) do(ctx context.Context, cl *client, op workload.Op, parent, opID int64, lat *opLatencies) {
	name := "get"
	if op.Kind == workload.OpWrite {
		name = "put"
	}
	traced := b.tr.on.Load()
	key := op.Key
	cl.callKey.Store(&key)
	cl.callStart.Store(int64(time.Since(b.tr.t0)))
	sp := cl.rec.begin(name, parent, opID)
	start := time.Now()
	var err error
	if op.Kind == workload.OpWrite {
		err = b.c.PutCtx(ctx, op.Key, op.Value)
		d := time.Since(start)
		cl.rec.end(sp)
		if err != nil {
			d = failedOp
			cl.unsure[op.Key] = true
		} else {
			cl.want[op.Key] = op.Value
			delete(cl.unsure, op.Key)
		}
		lat.put = append(lat.put, d)
	} else {
		var got string
		var found bool
		got, found, err = b.c.GetCtx(ctx, op.Key)
		d := time.Since(start)
		cl.rec.end(sp)
		if err != nil {
			d = failedOp
		} else {
			b.check(cl, op.Key, got, found)
		}
		lat.get = append(lat.get, d)
	}
	cl.callKey.Store(nil)
	first := cl.firstWait.Swap(0)
	cl.attempted++
	if err != nil {
		cl.failed++
		fmt.Fprintf(os.Stderr, "kvperf: %s %s failed: %v\n", name, op.Key, err)
	}
	if lat == &cl.lat {
		if first > 0 && traced {
			cl.firstAttempt = append(cl.firstAttempt, time.Duration(first))
		}
		if b.traced {
			cl.keyOps[op.Key]++
		}
		if traced {
			cl.onOps++
		} else {
			cl.offOps++
		}
	}
}

func (b *bench) check(cl *client, key, got string, found bool) {
	if cl.unsure[key] {
		return
	}
	want, ok := cl.want[key]
	if ok && found && got == want {
		return
	}
	cl.mismatches++
	if cl.firstBad == "" {
		cl.firstBad = fmt.Sprintf("get %s returned found=%v value of %d bytes, want %d bytes (written=%v)",
			key, found, len(got), len(want), ok)
	}
}

// serveWindow runs every client's closed loop — generate an op, run it,
// check it — for the measured seconds. The traced run splits the window
// into four slices, tracing off and on alternately, to measure what
// tracing costs.
func (b *bench) serveWindow(ctx context.Context) {
	b.winFrom = takeSnapshot(b.c)
	start := time.Now()
	until := start.Add(b.seconds)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		if b.traced {
			b.alternate(until, stop)
		}
	}()
	slices := max(1, int(b.seconds/rateSlice))
	b.parallel(func(cl *client) {
		cl.sliceOps = make([]int64, slices)
		cl.getEnds = make([]int, slices)
		for time.Now().Before(until) {
			cl.opSeq++
			opID := int64(cl.id)<<40 | cl.opSeq
			root := cl.rec.begin("op", -1, opID)
			g := cl.rec.begin("gen", root, opID)
			op := cl.gen.Next()
			cl.rec.end(g)
			b.do(ctx, cl, op, root, opID, &cl.lat)
			cl.rec.end(root)
			i := min(slices-1, int(time.Since(start)/rateSlice))
			cl.sliceOps[i]++
			cl.getEnds[i] = len(cl.lat.get)
		}
	})
	close(stop)
	<-done
	b.winTo = takeSnapshot(b.c)
	b.sliceGets = make([][]time.Duration, slices)
	for _, cl := range b.clients {
		from := 0
		for i, end := range cl.getEnds {
			to := max(end, from) // a slice without ops keeps its zero end
			b.sliceGets[i] = append(b.sliceGets[i], cl.lat.get[from:to]...)
			from = to
		}
	}
	for i := 0; i < slices; i++ {
		var n int64
		for _, cl := range b.clients {
			n += cl.sliceOps[i]
		}
		b.rates = append(b.rates, float64(n)/(b.seconds/time.Duration(slices)).Seconds())
	}
}

// alternate toggles tracing in the traced run: four equal slices up to
// until, off first, and adds each slice's length to onTime or offTime.
// It leaves tracing on.
func (b *bench) alternate(until time.Time, stop <-chan struct{}) {
	slice := time.Until(until) / 4
	for i := 0; i < 4; i++ {
		on := i%2 == 1
		b.tr.on.Store(on)
		start := time.Now()
		t := time.NewTimer(slice)
		select {
		case <-t.C:
		case <-stop:
			t.Stop()
		}
		if on {
			b.onTime += time.Since(start)
		} else {
			b.offTime += time.Since(start)
		}
	}
	b.tr.on.Store(true)
}

// readBack re-reads keys through the cluster on the client's goroutine
// and checks each value. It is the output check after every recovery
// phase and at the end of a run.
func (b *bench) readBack(ctx context.Context, cl *client, keys []string, parent int64, lat *opLatencies) {
	for _, k := range keys {
		cl.opSeq++
		b.do(ctx, cl, workload.Op{Kind: workload.OpRead, Key: k}, parent, int64(cl.id)<<40|cl.opSeq, lat)
	}
}

// finalCheck reads back every key every client owns, preloaded and new.
func (b *bench) finalCheck(ctx context.Context) {
	b.parallel(func(cl *client) {
		b.readBack(ctx, cl, cl.keys, -1, &opLatencies{})
	})
}

// run sets up, measures, checks and reports one workload.
func (b *bench) run() (result, error) {
	ctx := context.Background()
	for i := 0; i < setups; i++ {
		c, d, err := b.setupOnce(ctx, false, "")
		if err != nil {
			return result{}, err
		}
		b.setup = append(b.setup, d)
		if i < setups-1 {
			c.Close()
			// Hand the discarded cluster's memory back, so the peak RSS is
			// the measured cluster's and not an accident of when the
			// scavenger last ran.
			debug.FreeOSMemory()
			continue
		}
		b.c = c
	}
	b.serveWindow(ctx)
	b.finalCheck(ctx)
	b.c.Close()

	// The recovery cycles run on a cluster of their own, loaded with the
	// same keys: every run then recovers the same state, whatever its
	// serving throughput, and no recovery traffic meets the serving window.
	rc, _, err := b.setupOnce(ctx, b.spec.durable, filepath.Join(b.dir, "recovery"))
	if err != nil {
		return result{}, err
	}
	b.c = rc
	defer rc.Close()
	for i := 0; i < b.spec.cycles; i++ {
		if err := b.cycle(ctx, i); err != nil {
			return result{}, err
		}
	}
	b.finalCheck(ctx)
	rc.Close()
	if b.traced {
		if err := b.runProbes(ctx); err != nil {
			return result{}, err
		}
	}
	return b.result()
}
