package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/testutil"
	"repro/internal/wal"
)

// fakeDump serves a dump of n chunks ("chunk-0" … ) and counts the
// fetches it has answered.
func fakeDump(n int, fetches *atomic.Int64) dumpFunc {
	return func(ctx context.Context, cur uint64) ([]byte, uint64, bool, error) {
		if err := ctx.Err(); err != nil {
			return nil, 0, false, err
		}
		fetches.Add(1)
		return []byte(fmt.Sprintf("chunk-%d", cur)), cur + 1, int(cur) == n-1, nil
	}
}

func noPace() error { return nil }

// TestPrefetch_InOrderOneChunkAhead: the pipeline hands every chunk to
// the consumer exactly once and in order, and the fetcher never runs
// more than one chunk ahead of the chunk being consumed.
func TestPrefetch_InOrderOneChunkAhead(t *testing.T) {
	const n = 20
	var fetches atomic.Int64
	var got []string
	err := pipeDump(context.Background(), fakeDump(n, &fetches), noPace, func(chunk []byte) error {
		k := len(got)
		// While chunk k is consumed the fetcher may hold chunk k+1.
		if f := fetches.Load(); f > int64(k)+2 {
			t.Errorf("consuming chunk %d with %d chunks fetched: more than one ahead", k, f)
		}
		got = append(got, string(chunk))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("consumed %d chunks, want %d", len(got), n)
	}
	for i, c := range got {
		if c != fmt.Sprintf("chunk-%d", i) {
			t.Fatalf("chunk %d = %q: out of order", i, c)
		}
	}
}

// TestPrefetch_RestartsOnceOnStaleCursor: a stale cursor restarts the
// dump from zero once; a second one ends the stream with the error.
func TestPrefetch_RestartsOnceOnStaleCursor(t *testing.T) {
	stale := errors.New("syncwal: wal: stale dump cursor")
	for _, staleTimes := range []int{1, 2} {
		calls, fails := 0, 0
		dump := func(ctx context.Context, cur uint64) ([]byte, uint64, bool, error) {
			calls++
			if cur == 2 && fails < staleTimes {
				fails++
				return nil, 0, false, stale
			}
			return []byte{byte(cur)}, cur + 1, cur == 3, nil
		}
		var got []byte
		err := pipeDump(context.Background(), dump, noPace, func(chunk []byte) error {
			got = append(got, chunk...)
			return nil
		})
		switch staleTimes {
		case 1:
			if err != nil || !bytes.Equal(got, []byte{0, 1, 0, 1, 2, 3}) {
				t.Fatalf("one stale cursor: got %v, err %v; want a restart from zero", got, err)
			}
		case 2:
			if !errors.Is(err, stale) {
				t.Fatalf("two stale cursors: err %v, want the stale error", err)
			}
		}
	}
}

// TestPrefetch_FailureOrCancelLeaksNoGoroutine: a consumer (apply)
// error, a fetch error, a pace error and a cancellation mid-dump each
// end the stream with that error, and the fetcher is joined before
// pipeDump returns — even while it is blocked handing over the next
// chunk.
func TestPrefetch_FailureOrCancelLeaksNoGoroutine(t *testing.T) {
	boom := errors.New("apply failed")
	base := testutil.SettleGoroutines()

	var fetches atomic.Int64
	consumed := 0
	err := pipeDump(context.Background(), fakeDump(100, &fetches), noPace, func([]byte) error {
		consumed++
		if consumed == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("apply failure: err %v, want %v", err, boom)
	}
	testutil.CheckNoGoroutineLeak(t, base, 0)

	err = pipeDump(context.Background(), func(ctx context.Context, cur uint64) ([]byte, uint64, bool, error) {
		if cur == 4 {
			return nil, 0, false, boom
		}
		return []byte("x"), cur + 1, false, nil
	}, noPace, func([]byte) error { return nil })
	if !errors.Is(err, boom) {
		t.Fatalf("fetch failure: err %v, want %v", err, boom)
	}
	testutil.CheckNoGoroutineLeak(t, base, 0)

	paces := 0
	err = pipeDump(context.Background(), fakeDump(100, &fetches), func() error {
		if paces++; paces == 5 {
			return boom
		}
		return nil
	}, func([]byte) error { return nil })
	if !errors.Is(err, boom) {
		t.Fatalf("pace failure: err %v, want %v", err, boom)
	}
	testutil.CheckNoGoroutineLeak(t, base, 0)

	ctx, cancel := context.WithCancel(context.Background())
	consumed = 0
	err = pipeDump(ctx, fakeDump(100, &fetches), noPace, func([]byte) error {
		if consumed++; consumed == 5 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled mid-dump: err %v, want context.Canceled", err)
	}
	testutil.CheckNoGoroutineLeak(t, base, 0)
}

// TestFilterStream_KeepsOnlyDestinationReplicas: the coordinator's
// filter keeps a Set frame, verbatim, only when the destination
// replicates its key, never keeps a parked hint, flattens MPut pairs
// through the same test, and passes dedupe frames through.
func TestFilterStream_KeepsOnlyDestinationReplicas(t *testing.T) {
	c, err := New(Config{Nodes: 4, Replicas: 2, DisableHints: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const dst = "node0"

	var chunk, want []byte
	var mput []wal.KV
	mine, others := 0, 0
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%d", i)
		frame := wal.AppendStreamRecord(nil, &wal.Record{Kind: wal.KindSet, Client: 5, ID: uint64(i + 1), Key: key, Value: "v"})
		chunk = append(chunk, frame...)
		if c.replicaFor(key, dst) {
			want = append(want, frame...)
			mine++
		} else {
			others++
		}
		// A hint parked on dst for a key dst replicates is still
		// per-holder scratch state, never replica data.
		chunk = wal.AppendStreamRecord(chunk, &wal.Record{Kind: wal.KindSet, Key: hintKey(dst, key), Value: "v"})
		if i < 20 {
			mput = append(mput, wal.KV{Key: key, Value: "m"})
		}
	}
	if mine == 0 || others == 0 {
		t.Fatalf("test keys must land on both sides of the filter (%d mine, %d others)", mine, others)
	}
	dedupe := wal.AppendStreamDedupe(nil, wal.DedupeEntry{Client: 5, ID: 999, Resp: []byte("OK")})
	chunk = append(chunk, dedupe...)
	want = append(want, dedupe...)
	chunk = wal.AppendStreamRecord(chunk, &wal.Record{Kind: wal.KindMPut, Client: 5, ID: 1000, Pairs: mput})
	for _, kv := range mput {
		if c.replicaFor(kv.Key, dst) {
			want = wal.AppendStreamRecord(want, &wal.Record{Kind: wal.KindSet, Key: kv.Key, Value: kv.Value})
		}
	}

	got, err := c.filterStream(chunk, dst)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("filtered chunk is not the destination's frames, verbatim (%d bytes, want %d)", len(got), len(want))
	}
	if _, err := c.filterStream(chunk[:len(chunk)-1], dst); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("truncated chunk: want ErrCorrupt, got %v", err)
	}
}
