package sockets

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/wal"
)

// TestSnapshotTrigger_BulkApplyIsLogarithmic is the amortized-trigger
// gate: streaming N = 8·WALSnapshotEvery records into an empty durable
// server writes at most ⌈log2 8⌉+1 = 4 snapshots, because each one
// waits for as many mutations as the previous snapshot held keys. A
// trigger on the mutation count alone writes one per WALSnapshotEvery
// records — 8 here, and N/10000 full-store snapshots in a rebuild.
func TestSnapshotTrigger_BulkApplyIsLogarithmic(t *testing.T) {
	const every, n, perChunk = 500, 8 * 500, 250
	dir := t.TempDir()
	s, p := syncWALServer(t, dir, ServerConfig{WALSnapshotEvery: every})
	ctx := context.Background()
	for c := 0; c < n/perChunk; c++ {
		var chunk []byte
		for i := c * perChunk; i < (c+1)*perChunk; i++ {
			key := fmt.Sprintf("key-%05d", i)
			chunk = wal.AppendStreamRecord(chunk, &wal.Record{Kind: wal.KindSet, Key: key, Value: stamped("n0", int64(i+1), "v")})
		}
		if applied, err := p.SyncWALApplyCtx(ctx, chunk); err != nil || applied != perChunk {
			t.Fatalf("chunk %d: applied %d, err %v", c, applied, err)
		}
	}
	p.Close()
	if err := s.Close(); err != nil { // joins any in-flight snapshot
		t.Fatal(err)
	}
	if got := s.wal.Snapshots(); got < 1 || got > 4 {
		t.Fatalf("bulk apply of %d records at WALSnapshotEvery=%d wrote %d snapshots, want 1..4", n, every, got)
	}
	s2 := startDurableLocal(t, dir, ServerConfig{WALSnapshotEvery: every})
	if got := s2.RecoveredKeys(); got != n {
		t.Fatalf("recovered %d keys, want %d", got, n)
	}
}

// TestSnapshotTrigger_FloorStillCompactsOverwrites: with a key set far
// smaller than WALSnapshotEvery, the mutation floor alone decides, so a
// stream of overwrites still compacts every WALSnapshotEvery writes.
func TestSnapshotTrigger_FloorStillCompactsOverwrites(t *testing.T) {
	const every = 200
	s, p := syncWALServer(t, t.TempDir(), ServerConfig{WALSnapshotEvery: every})
	ctx := context.Background()
	for i := 0; i < 5*every; i++ {
		if err := p.SetCtx(ctx, fmt.Sprintf("k%d", i%10), "v"); err != nil {
			t.Fatal(err)
		}
	}
	p.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := s.wal.Snapshots(); got < 3 {
		t.Fatalf("%d overwrites of 10 keys at WALSnapshotEvery=%d wrote %d snapshots, want >= 3", 5*every, every, got)
	}
}

// startDurableLocal opens a durable server on dir, closed at cleanup.
func startDurableLocal(t *testing.T, dir string, cfg ServerConfig) *Server {
	t.Helper()
	cfg.WALDir = dir
	s, err := NewServerConfig("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}
