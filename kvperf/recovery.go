package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/workload"
)

// victim is the node every recovery phase kills. A fixed victim keeps
// cycles alike; the cluster is symmetric, so which node it is does not
// matter.
const victim = "node1"

// maxSyncPasses bounds the sync-until-quiet loop; a phase that needs
// more fails its output check.
const maxSyncPasses = 16

// recoveryStats accumulates what the recovery phases measured.
type recoveryStats struct {
	catchup, rebuild []time.Duration
	restart          []time.Duration // Restart calls of catch-up phases
	catchupPasses    int
	catchupRepaired  int
	catchupDiverged  int
	catchupAEBytes   int64
	rebuildStreams   int64
	rebuildBytes     int64
	rebuildKeys      int
}

// batch runs fn on every client as one span. Recovery ops are checked
// but not measured: the serving window's ops are the measured ones.
func (b *bench) batch(name string, parent int64, fn func(cl *client)) {
	sp := b.rec.begin(name, parent, parent)
	b.parallel(fn)
	b.rec.end(sp)
}

// syncUntilQuiet runs anti-entropy passes until one repairs nothing —
// a quiet pass certifies that every live pair's Merkle trees match —
// and returns the passes run and the copies repaired.
func (b *bench) syncUntilQuiet(ctx context.Context, parent int64) (passes, repaired int, err error) {
	for passes < maxSyncPasses {
		passes++
		sp := b.rec.begin("sync", parent, parent)
		n, err := b.c.SyncNow(ctx)
		b.rec.end(sp)
		if err != nil {
			return passes, repaired, fmt.Errorf("sync pass %d: %w", passes, err)
		}
		repaired += n
		if n == 0 {
			return passes, repaired, nil
		}
	}
	return passes, repaired, fmt.Errorf("no quiet sync pass within %d passes", maxSyncPasses)
}

// restartAndSync restarts the victim and syncs until quiet, returning
// the time from Restart to the quiet pass and the Restart call alone.
func (b *bench) restartAndSync(ctx context.Context, parent int64) (total, restart time.Duration, passes, repaired int, err error) {
	start := time.Now()
	sp := b.rec.begin("restart", parent, parent)
	err = b.c.Restart(victim)
	b.rec.end(sp)
	restart = time.Since(start)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	passes, repaired, err = b.syncUntilQuiet(ctx, parent)
	return time.Since(start), restart, passes, repaired, err
}

// kill kills the victim, wipes its WAL if asked, and runs one failure
// detection sweep so that the cluster has marked it down before the
// phase goes on. Left to the 100 ms heartbeat, detection landed in about
// half the phases: a Restart of a node marked down also replays hints on
// the way up, which made it half again as slow, and catchup_s flipped
// between the two modes from run to run.
func (b *bench) kill(parent int64, wipe bool) error {
	sp := b.rec.begin("kill", parent, parent)
	defer b.rec.end(sp)
	before := takeSnapshot(b.c)
	if err := b.c.Kill(victim); err != nil {
		return err
	}
	if wipe {
		if err := b.c.WipeWAL(victim); err != nil {
			return err
		}
	}
	b.c.Probe()
	if down := before.delta(takeSnapshot(b.c), "cluster.down-events"); down != 1 {
		return fmt.Errorf("killing %s gave %g down events, want 1", victim, down)
	}
	return nil
}

func (b *bench) totalKeys() int {
	n := 0
	for _, cl := range b.clients {
		n += len(cl.keys)
	}
	return n
}

// nextVerifyKeys returns the client's next verifyKeys older keys, going
// round its keyspace.
func (b *bench) nextVerifyKeys(cl *client) []string {
	out := make([]string, 0, verifyKeys)
	for i := 0; i < verifyKeys/len(b.clients); i++ {
		out = append(out, cl.keys[cl.verifyPos%len(cl.keys)])
		cl.verifyPos++
	}
	return out
}

// cycle is one recovery cycle of two phases on the victim.
//
// Catch-up: kill it, write D new keys, restart it (a durable node
// replays its own WAL; a memory-only one comes back empty), then sync
// until quiet. Span repair must carry it: no WAL stream may run.
//
// Rebuild: kill it, wipe its WAL (durable only), restart it empty and
// sync until quiet. On a durable cluster the near-total divergence must
// make the code choose WAL streaming.
//
// After each phase the new keys and a rotating sample of older keys are
// read back and checked.
func (b *bench) cycle(ctx context.Context, i int) error {
	rs := &b.rs
	phase := b.rec.begin("phase.catchup", -1, int64(i))
	if err := b.kill(phase, false); err != nil {
		return err
	}
	fresh := map[*client][]string{}
	for _, cl := range b.clients {
		for j := 0; j < divergent/len(b.clients); j++ {
			k := fmt.Sprintf("c%d-n%d", cl.id, len(cl.keys)-cl.preload)
			cl.keys = append(cl.keys, k)
			fresh[cl] = append(fresh[cl], k)
		}
	}
	b.batch("batch.put", phase, func(cl *client) {
		for _, k := range fresh[cl] {
			cl.opSeq++
			op := workload.Op{Kind: workload.OpWrite, Key: k, Value: value(cl.rng, b.spec.valueSize)}
			b.do(ctx, cl, op, phase, int64(cl.id)<<40|cl.opSeq, &opLatencies{})
		}
	})
	before := takeSnapshot(b.c)
	total, restart, passes, repaired, err := b.restartAndSync(ctx, phase)
	if err != nil {
		b.fail("catch-up %d: %v", i, err)
		return err
	}
	after := takeSnapshot(b.c)
	streams := int64(before.delta(after, "antientropy.streams"))
	diverged := len(fresh[b.clients[0]]) * len(b.clients)
	if !b.spec.durable {
		diverged = b.totalKeys() // a memory-only node restarts empty
	}
	if streams != 0 {
		b.fail("catch-up %d streamed the WAL %d times; light divergence must take span repair", i, streams)
	}
	if repaired < diverged {
		b.fail("catch-up %d repaired %d copies of %d diverged keys", i, repaired, diverged)
	}
	rs.catchup = append(rs.catchup, total)
	rs.restart = append(rs.restart, restart)
	rs.catchupPasses += passes
	rs.catchupRepaired += repaired
	rs.catchupDiverged += diverged
	rs.catchupAEBytes += int64(before.delta(after, "antientropy.bytes"))
	check := map[*client][]string{}
	for _, cl := range b.clients {
		check[cl] = append(fresh[cl], b.nextVerifyKeys(cl)...)
	}
	b.batch("batch.verify", phase, func(cl *client) {
		b.readBack(ctx, cl, check[cl], phase, &opLatencies{})
	})
	b.rec.end(phase)

	phase = b.rec.begin("phase.rebuild", -1, int64(i))
	if err := b.kill(phase, b.spec.durable); err != nil {
		return err
	}
	before = takeSnapshot(b.c)
	total, _, _, repaired, err = b.restartAndSync(ctx, phase)
	if err != nil {
		b.fail("rebuild %d: %v", i, err)
		return err
	}
	after = takeSnapshot(b.c)
	streams = int64(before.delta(after, "antientropy.streams"))
	if b.spec.durable && streams == 0 {
		b.fail("rebuild %d never streamed the WAL; a wiped node must be rebuilt by streaming", i)
	}
	if keys := b.totalKeys(); repaired < keys {
		b.fail("rebuild %d repaired %d copies of %d keys on the wiped node", i, repaired, keys)
	}
	rs.rebuild = append(rs.rebuild, total)
	rs.rebuildStreams += streams
	rs.rebuildBytes += int64(before.delta(after, "antientropy.stream-bytes"))
	rs.rebuildKeys += b.totalKeys()
	for _, cl := range b.clients {
		check[cl] = b.nextVerifyKeys(cl)
	}
	b.batch("batch.verify", phase, func(cl *client) {
		b.readBack(ctx, cl, check[cl], phase, &opLatencies{})
	})
	b.rec.end(phase)
	return nil
}
