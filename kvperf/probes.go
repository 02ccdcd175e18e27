package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/sockets"
	"repro/internal/version"
	"repro/internal/wal"
	"repro/internal/workload"
)

// Probe sizes: enough ops for steady medians, few enough that the three
// probes add about two seconds to a traced run.
const (
	socketsProbeOps  = 4000
	versionProbeOps  = 100000
	walProbeAppends  = 500 // per writer
	walProbeWriters  = 2
	walProbeSnapshot = 3
)

// sink keeps the compiler from dropping probed calls.
var sink string

// storedValue encodes v the way the cluster stores it: a version stamp
// from the key's coordinator, then the value. Keys written by one
// client keep one coordinator, so their vectors have a single entry.
func storedValue(i int, v string) string {
	ver := version.Version{VV: version.Vector{fmt.Sprintf("node%d", i%3): uint64(1 + i%4)}, Clock: time.Now().UnixNano()}
	return version.Encode(ver, v)
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// runProbes measures the sockets, version and wal layers alone, each on
// the workload's own keys and values, after the cluster has closed.
func (b *bench) runProbes(ctx context.Context) error {
	b.probes = map[string]float64{}
	if err := b.socketsProbe(ctx); err != nil {
		return fmt.Errorf("sockets probe: %w", err)
	}
	if err := b.versionProbe(); err != nil {
		return fmt.Errorf("version probe: %w", err)
	}
	if err := b.walProbe(); err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	return nil
}

// socketsProbe replays client 0's op stream — the same seed, so the
// same ops its serving loop ran — through a sockets.Pool to one
// standalone sockets.Server holding the client's preloaded keys.
func (b *bench) socketsProbe(ctx context.Context) error {
	srv, err := sockets.NewServerConfig("127.0.0.1:0", sockets.ServerConfig{Shards: 8})
	if err != nil {
		return err
	}
	defer srv.Close()
	cfg := clusterConfig(b.spec, false, "", nil)
	pool, err := sockets.NewPool(srv.Addr(), sockets.PoolConfig{Proto: cfg.Proto, Size: cfg.PoolSize, MaxAttempts: 2, Timeout: 500 * time.Millisecond})
	if err != nil {
		return err
	}
	defer pool.Close()
	cl := b.clients[0]
	var pairs []sockets.KV
	for i, k := range cl.keys[:cl.preload] {
		pairs = append(pairs, sockets.KV{Key: k, Value: storedValue(i, cl.want[k])})
		if len(pairs) == 256 || i == cl.preload-1 {
			if err := pool.MPutCtx(ctx, pairs); err != nil {
				return err
			}
			pairs = pairs[:0]
		}
	}
	gen := cl.wl.Gen(cl.id)
	var gets, sets []time.Duration
	m0 := mallocs()
	for i := 0; i < socketsProbeOps; i++ {
		op := gen.Next()
		if op.Kind == workload.OpWrite {
			enc := storedValue(i, op.Value)
			sp := b.rec.begin("sockets.set", -1, int64(i))
			start := time.Now()
			_, err = pool.SetVCtx(ctx, op.Key, enc)
			sets = append(sets, time.Since(start))
			b.rec.end(sp)
		} else {
			sp := b.rec.begin("sockets.get", -1, int64(i))
			start := time.Now()
			sink, _, err = pool.GetCtx(ctx, op.Key)
			gets = append(gets, time.Since(start))
			b.rec.end(sp)
		}
		if err != nil {
			return err
		}
	}
	b.probes["sockets.allocs_per_op"] = float64(mallocs()-m0) / socketsProbeOps
	b.probes["sockets.get_rtt_us"] = us(median(gets))
	b.probes["sockets.set_rtt_us"] = us(median(sets))
	return nil
}

// versionProbe decodes the stored encodings of client 0's keys.
func (b *bench) versionProbe() error {
	cl := b.clients[0]
	n := min(cl.preload, 4096)
	encs := make([]string, n)
	for i := range encs {
		encs[i] = storedValue(i, cl.want[cl.keys[i]])
		if _, v, _, err := version.Decode(encs[i]); err != nil || v != cl.want[cl.keys[i]] {
			return fmt.Errorf("decode of %s does not round-trip (%v)", cl.keys[i], err)
		}
	}
	m0 := mallocs()
	start := time.Now()
	for done := 0; done < versionProbeOps; done += 1000 {
		sp := b.rec.begin("version.decode", -1, int64(done))
		for i := 0; i < 1000; i++ {
			_, v, _, err := version.Decode(encs[(done+i)%n])
			if err != nil {
				return err
			}
			sink = v
		}
		b.rec.end(sp)
	}
	elapsed := time.Since(start)
	b.probes["version.decode_allocs"] = float64(mallocs()-m0) / versionProbeOps
	b.probes["version.decode_ns"] = float64(elapsed) / versionProbeOps
	return nil
}

// walProbe appends the workload's records from two writers to one
// standalone wal.Log, then snapshots the workload's whole dataset. Its
// storage figure is the bytes the appends sent to the disk per byte of
// key and value appended.
func (b *bench) walProbe() error {
	l, err := wal.Open(wal.Config{Dir: filepath.Join(b.dir, "walprobe")})
	if err != nil {
		return err
	}
	defer l.Close()
	cl := b.clients[0]
	lats := make([][]time.Duration, walProbeWriters)
	recs := make([]*recorder, walProbeWriters)
	for w := range recs {
		recs[w] = b.tr.recorder()
	}
	errs := make([]error, walProbeWriters)
	var userBytes [walProbeWriters]float64
	io0 := procIO()
	var wg sync.WaitGroup
	for w := 0; w < walProbeWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < walProbeAppends; i++ {
				k := cl.keys[(w*walProbeAppends+i)%cl.preload]
				rec := &wal.Record{Kind: wal.KindSet, Key: k, Value: storedValue(i, cl.want[k])}
				userBytes[w] += float64(len(rec.Key) + len(rec.Value))
				sp := recs[w].begin("wal.append", -1, int64(w)<<40|int64(i))
				start := time.Now()
				err := l.AppendSync(rec)
				lats[w] = append(lats[w], time.Since(start))
				recs[w].end(sp)
				if err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	io1 := procIO()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	var appended float64
	for _, n := range userBytes {
		appended += n
	}
	b.probes["storage.write_bytes_per_user_byte"] = ratio(io1["write_bytes"]-io0["write_bytes"], appended)
	var all []time.Duration
	for _, ws := range lats {
		all = append(all, ws...)
	}
	b.probes["wal.append_sync_us"] = us(median(all))
	b.probes["wal.appends_per_sync"] = ratio(float64(l.Appends()), float64(l.Syncs()))

	snap := &wal.Snapshot{}
	i := 0
	for _, c := range b.clients {
		for _, k := range c.keys {
			snap.Pairs = append(snap.Pairs, wal.KV{Key: k, Value: storedValue(i, c.want[k])})
			i++
		}
	}
	var took []time.Duration
	for r := 0; r < walProbeSnapshot; r++ {
		tail, err := l.Rotate()
		if err != nil {
			return err
		}
		sp := b.rec.begin("wal.snapshot", -1, int64(r))
		start := time.Now()
		err = l.WriteSnapshot(tail, snap)
		took = append(took, time.Since(start))
		b.rec.end(sp)
		if err != nil {
			return err
		}
	}
	b.probes["wal.snapshot_ms"] = ms(median(took))
	return l.Close()
}
