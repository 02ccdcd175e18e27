package sockets

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/merkle"
	"repro/internal/sockets/wire"
	"repro/internal/version"
)

// binaryServer starts a server with cfg and a binary pool on it, both
// closed at cleanup.
func binaryServer(t *testing.T, cfg ServerConfig) (*Server, *Pool) {
	t.Helper()
	s, err := NewServerConfig("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	p, err := NewPool(s.Addr(), PoolConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return s, p
}

// stamped encodes value under a one-entry version vector.
func stamped(node string, clock int64, value string) string {
	return version.Encode(version.Version{}.Next(node, clock), value)
}

// TestMSetV_PerKeyCodes: one MSETV answers every pair with the outcome
// a lone SETV of that pair would have had, in request order; a retry of
// the same batch re-folds to all-stale and changes nothing.
func TestMSetV_PerKeyCodes(t *testing.T) {
	ctx := context.Background()
	_, p := binaryServer(t, ServerConfig{})
	for _, k := range []string{"dominated", "equal", "conc-win", "conc-lose"} {
		if _, err := p.SetVCtx(ctx, k, stamped("n0", 10, "old")); err != nil {
			t.Fatal(err)
		}
	}
	batch := []KV{
		{"fresh", stamped("n0", 1, "a")},
		{"dominated", version.Encode(version.Version{}.Next("n0", 10).Next("n0", 11), "b")},
		{"equal", stamped("n0", 10, "old")},
		{"conc-win", stamped("n1", 20, "c")},
		{"conc-lose", stamped("n1", 5, "d")},
	}
	want := []uint64{SetVApplied, SetVApplied, SetVStale, SetVAppliedConcurrent, SetVStaleConcurrent}
	codes, err := p.MSetVCtx(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(codes, want) {
		t.Fatalf("codes = %v, want %v", codes, want)
	}
	for i, kv := range batch {
		stored := stamped("n0", 10, "old")
		if SetVAppliedCode(want[i]) {
			stored = kv.Value
		}
		if got, _, _ := p.GetCtx(ctx, kv.Key); got != stored {
			t.Errorf("%s stores %q after code %d, want %q", kv.Key, got, want[i], stored)
		}
	}

	retry, err := p.MSetVCtx(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	for i, code := range retry {
		if SetVAppliedCode(code) {
			t.Errorf("retried %s applied again (code %d)", batch[i].Key, code)
		}
		if SetVAppliedCode(want[i]) && code != SetVStale {
			t.Errorf("retried %s = code %d, want stale (its own stamp is stored)", batch[i].Key, code)
		}
	}
}

// TestMSetV_BadStampRejectsBatch: an unstamped value anywhere in the
// batch rejects all of it, as it rejects a lone SETV — no pair lands.
func TestMSetV_BadStampRejectsBatch(t *testing.T) {
	ctx := context.Background()
	s, p := binaryServer(t, ServerConfig{})
	_, err := p.MSetVCtx(ctx, []KV{{"good", stamped("n0", 1, "v")}, {"bad", "no stamp"}})
	if err == nil || !strings.Contains(err.Error(), "setv:") {
		t.Fatalf("MSETV with an unstamped value = %v, want a setv error", err)
	}
	if _, err := p.SetVCtx(ctx, "bad", "no stamp"); err == nil || !strings.Contains(err.Error(), "setv:") {
		t.Fatalf("lone SETV with an unstamped value = %v, want a setv error", err)
	}
	if n, _ := p.CountCtx(ctx); n != 0 {
		t.Fatalf("a rejected batch stored %d keys", n)
	}
	if h := s.digest.RangeHash(0, merkle.Buckets); h != 0 {
		t.Fatalf("a rejected batch changed the digest (%x)", h)
	}
}

// TestMSetV_DurableBatchSharesFsyncs: a durable MSETV reserves every
// applied pair's log position before waiting on any, so a 64-key batch
// takes far fewer fsyncs than keys — and every applied pair is in the
// log, surviving a crash.
func TestMSetV_DurableBatchSharesFsyncs(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s, p := syncWALServer(t, dir, ServerConfig{})
	const keys = 64
	batch := make([]KV, keys)
	for i := range batch {
		batch[i] = KV{fmt.Sprintf("k%02d", i), stamped("n0", int64(i+1), fmt.Sprintf("v%d", i))}
	}
	_, syncs0 := s.WALStats()
	codes, err := p.MSetVCtx(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	for i, code := range codes {
		if code != SetVApplied {
			t.Fatalf("pair %d: code %d, want applied", i, code)
		}
	}
	appends, syncs := s.WALStats()
	if appends != keys {
		t.Errorf("%d log appends for %d applied pairs", appends, keys)
	}
	t.Logf("%d-key MSETV: %d fsyncs", keys, syncs-syncs0)
	if syncs-syncs0 >= keys {
		t.Errorf("%d fsyncs for one %d-key MSETV, want fewer than keys", syncs-syncs0, keys)
	}
	p.Close()
	if err := s.Crash(); err != nil {
		t.Fatal(err)
	}

	r, rp := syncWALServer(t, dir, ServerConfig{})
	defer r.Close()
	for _, kv := range batch {
		got, found, err := rp.GetCtx(ctx, kv.Key)
		if err != nil || !found || got != kv.Value {
			t.Fatalf("%s after crash = %q (found %v, err %v), want %q", kv.Key, got, found, err, kv.Value)
		}
	}
}

// TestScan_StripedMatchesBruteForce: stripes own bucket ranges and a
// SCAN walks only the stripes its spans overlap; for random stores,
// stripe counts and span sets, the answer must equal a brute-force
// filter of the whole store.
func TestScan_StripedMatchesBruteForce(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	for _, shards := range []int{1, 3, 16, 64} {
		_, p := binaryServer(t, ServerConfig{Shards: shards, SyncExcludePrefix: "hint~"})
		store := map[string]string{}
		var pairs []KV
		for i := 0; i < 2000; i++ {
			k := fmt.Sprintf("key-%d-%d", shards, rng.Int63())
			if i%50 == 0 {
				k = "hint~" + k // excluded from the digest and from SCAN
			}
			store[k] = fmt.Sprintf("v%d", i)
			pairs = append(pairs, KV{k, store[k]})
		}
		if err := p.MPutCtx(ctx, pairs); err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 50; trial++ {
			spans := make([]wire.Span, 1+rng.Intn(6))
			for i := range spans {
				lo := rng.Intn(merkle.Buckets + 64)
				spans[i] = wire.Span{Lo: uint32(lo), Hi: uint32(lo + 1 + rng.Intn(600))}
			}
			got, err := p.ScanCtx(ctx, spans)
			if err != nil {
				t.Fatal(err)
			}
			var want []wire.ScanEntry
			for k, v := range store {
				if strings.HasPrefix(k, "hint~") {
					continue
				}
				b := uint32(merkle.BucketOf(k))
				for _, sp := range spans {
					if b >= sp.Lo && b < sp.Hi {
						want = append(want, wire.ScanEntry{Key: k, Hash: merkle.EntryHash(k, v)})
						break
					}
				}
			}
			sort.Slice(want, func(i, j int) bool { return want[i].Key < want[j].Key })
			if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("shards=%d spans=%v: SCAN gave %d entries, brute force %d", shards, spans, len(got), len(want))
			}
		}
	}
}

// TestScan_ReadsOnlyItsOwnStripes: a SCAN whose spans lie in one
// stripe's bucket range never touches the others — it completes while
// another stripe is write-locked.
func TestScan_ReadsOnlyItsOwnStripes(t *testing.T) {
	s, _ := binaryServer(t, ServerConfig{Shards: 16})
	const per = merkle.Buckets / 16
	s.shards[0].lock.Lock()
	defer s.shards[0].lock.Unlock()
	done := make(chan struct{})
	go func() {
		s.applyScan(&wire.Request{Verb: wire.VerbScan, Spans: []wire.Span{{Lo: 8 * per, Hi: 9 * per}}})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("a SCAN of stripe 8's buckets waited on stripe 0's lock")
	}
}
