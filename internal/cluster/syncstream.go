package cluster

import (
	"context"
	"strings"

	"repro/internal/merkle"
	"repro/internal/wal"
)

// WAL-streaming re-replication: when a pair sync's Merkle diff reports
// near-total divergence — a node restarted empty after disk loss, or a
// fresh replica — walking the tree and repairing key by key does one
// SCAN merge-join plus one SETV-sized payload per differing key, with
// the coordinator decoding versions in between. Streaming skips all of
// that: the fuller node's whole durable history (snapshot + segments,
// already CRC-framed on disk) ships as a few big SYNCWAL chunks, the
// coordinator filters each chunk down to the frames the receiver should
// own, and the receiver folds them in through the same version-
// conditional SETV apply path every repair uses. Version stamps,
// tombstones, and dedupe recordings all ride along because they are
// simply bytes in the log. The follow-up Merkle pass then covers
// whatever the stream could not: keys only the thinner node had,
// oversized frames the dump skipped, and writes that raced the stream.

// streamEligible reports whether a pair sync should re-replicate by
// streaming the WAL instead of span-repairing key by key: the
// divergence ratio is at or past the configured threshold, and the
// nodes are durable (a memory-only node has no log to dump).
func (c *Cluster) streamEligible(leaves []merkle.Range) bool {
	thr := c.cfg.SyncStreamThreshold
	if thr < 0 || !c.cfg.Durable {
		return false
	}
	return float64(len(leaves)) >= thr*float64(merkle.Buckets)
}

// streamSync re-replicates one diverged pair by WAL streaming: the
// node holding more keys is the source (divergence this deep almost
// always means the other side lost state), its log is pulled chunk by
// chunk, filtered, and pushed to the destination. Returns how many
// frames the destination actually applied — version-conditional, so
// frames the destination already has (or has newer versions of) count
// zero and convergence loops still terminate. pace is the caller's
// per-request throttle, shared so a stream honors AntiEntropyWait like
// any other repair traffic.
//
// The stream is pipelined (pipeDump): chunk k+1 is fetched from the
// source and filtered while chunk k is applied at the destination.
func (c *Cluster) streamSync(ctx context.Context, a, b *node, pace func() error) (int, error) {
	if err := pace(); err != nil {
		return 0, err
	}
	na, err := a.client().CountCtx(ctx)
	if err != nil {
		return 0, err
	}
	if err := pace(); err != nil {
		return 0, err
	}
	nb, err := b.client().CountCtx(ctx)
	if err != nil {
		return 0, err
	}
	src, dst := a, b
	if nb > na {
		src, dst = b, a
	}

	applied := 0
	dump := func(ctx context.Context, cur uint64) ([]byte, uint64, bool, error) {
		chunk, next, done, err := src.client().SyncWALDumpCtx(ctx, cur)
		if err == nil {
			chunk, err = c.filterStream(chunk, dst.name)
		}
		return chunk, next, done, err
	}
	err = pipeDump(ctx, dump, pace, func(filtered []byte) error {
		if len(filtered) == 0 {
			return nil
		}
		if err := pace(); err != nil {
			return err
		}
		n, err := dst.client().SyncWALApplyCtx(ctx, filtered)
		if err != nil {
			return err
		}
		applied += n
		c.aeStreamBytes.Add(int64(len(filtered)))
		return nil
	})
	if err != nil {
		return applied, err
	}
	c.aeStreams.Add(1)
	c.aeKeysRepaired.Add(int64(applied))
	return applied, nil
}

// dumpFunc fetches one SYNCWAL dump chunk from cursor cur.
type dumpFunc func(ctx context.Context, cur uint64) (chunk []byte, next uint64, done bool, err error)

// dumpChunk is one fetched dump chunk, or the error that ended the
// dump.
type dumpChunk struct {
	chunk []byte
	done  bool
	err   error
}

// pipeDump runs a whole dump through consume, one chunk at a time and
// in order, overlapping the two: a fetcher goroutine pulls chunk k+1
// while consume works on chunk k. The hand-off channel is unbuffered,
// so the fetcher stays at most one chunk ahead. Every return —
// success, a fetch or consume error, or ctx ending — cancels the
// fetcher and waits for it to exit.
func pipeDump(ctx context.Context, dump dumpFunc, pace func() error, consume func(chunk []byte) error) error {
	ctx, cancel := context.WithCancel(ctx)
	chunks := make(chan dumpChunk)
	fetched := make(chan struct{})
	go func() {
		defer close(fetched)
		fetchDump(ctx, dump, pace, chunks)
	}()
	defer func() {
		cancel()
		<-fetched
	}()
	for {
		var d dumpChunk
		select {
		case d = <-chunks:
		case <-ctx.Done():
			return ctx.Err()
		}
		if d.err != nil {
			return d.err
		}
		if err := consume(d.chunk); err != nil {
			return err
		}
		if d.done {
			return nil
		}
	}
}

// fetchDump pulls a dump chunk by chunk into out, pacing each request.
// It returns after handing over the last chunk or an error, or when
// ctx ends.
func fetchDump(ctx context.Context, dump dumpFunc, pace func() error, out chan<- dumpChunk) {
	restarted := false
	var cur uint64
	for {
		var d dumpChunk
		var next uint64
		if d.err = pace(); d.err == nil {
			d.chunk, next, d.done, d.err = dump(ctx, cur)
		}
		// A snapshot on the source replaced the snapshot or pruned the
		// segment the cursor points into: the only consistent move is to
		// restart from zero. Re-applied frames are harmless (version-
		// conditional); a second staleness means the source is
		// snapshotting faster than we can stream, so fall back to the
		// Merkle path rather than loop.
		if d.err != nil && strings.Contains(d.err.Error(), "stale dump cursor") && !restarted {
			restarted, cur = true, 0
			continue
		}
		select {
		case out <- d:
		case <-ctx.Done():
			return
		}
		if d.err != nil || d.done {
			return
		}
		cur = next
	}
}

// filterStream re-frames one dump chunk down to what the destination
// should ingest (see wal.FilterStream): dedupe recordings (per-client
// retry identities, replica-agnostic) and Set payloads — MPut pairs
// flattened to single Sets — for keys the destination actually
// replicates, skipping parked hints (per-holder scratch state). Kept
// Set frames travel verbatim, source CRC included. Raw Del/MDel records
// are dropped: cluster deletes are versioned tombstone Sets, so a bare
// delete frame could only have come from outside the cluster's write
// path, and blindly erasing the receiver's copy could destroy a newer
// version. Unstamped values pass through and the receiver skips them,
// as it skips any value SETV cannot order. One topoMu read lock covers
// the chunk.
func (c *Cluster) filterStream(chunk []byte, dstName string) ([]byte, error) {
	if len(chunk) == 0 {
		return nil, nil
	}
	c.topoMu.RLock()
	defer c.topoMu.RUnlock()
	return wal.FilterStream(make([]byte, 0, len(chunk)), chunk, func(key string) bool {
		return !strings.HasPrefix(key, hintMark) && c.replicaForLocked(key, dstName)
	})
}

// AntiEntropyStreams reports how many WAL-streaming re-replications
// anti-entropy passes have completed.
func (c *Cluster) AntiEntropyStreams() int64 { return c.aeStreams.Load() }

// AntiEntropyStreamBytes reports the filtered frame bytes those
// streams shipped.
func (c *Cluster) AntiEntropyStreamBytes() int64 { return c.aeStreamBytes.Load() }
