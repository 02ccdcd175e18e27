package wal

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// dumpAll runs a dump from cursor 0 to done with the given chunk budget
// and returns the chunks.
func dumpAll(t *testing.T, l *Log, maxBytes int) [][]byte {
	t.Helper()
	var chunks [][]byte
	for cur := uint64(0); ; {
		blob, next, done, skipped, err := l.DumpChunk(cur, maxBytes)
		if err != nil {
			t.Fatalf("DumpChunk(%#x): %v", cur, err)
		}
		if skipped != 0 {
			t.Fatalf("%d frames skipped; none exceeds the budget", skipped)
		}
		chunks = append(chunks, blob)
		if done {
			return chunks
		}
		if len(chunks) > 100000 {
			t.Fatal("dump did not terminate")
		}
		cur = next
	}
}

// splitFrames cuts a well-formed frame sequence into its frames.
func splitFrames(t *testing.T, data []byte) [][]byte {
	t.Helper()
	var frames [][]byte
	for off := 0; off < len(data); {
		_, n, err := readFrame(data[off:])
		if err != nil {
			t.Fatalf("frame at %d: %v", off, err)
		}
		frames = append(frames, data[off:off+n])
		off += n
	}
	return frames
}

// snapshotLog opens a log holding a snapshot of pairs distinct keys (and
// two dedupe entries) followed by segs sealed segments of distinct keys
// and a few records left in the active segment.
func snapshotLog(t *testing.T, pairs, segs int, value string) *Log {
	t.Helper()
	l, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	tail, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	snap := &Snapshot{Dedupe: []DedupeEntry{{Client: 1, ID: 2, Resp: []byte("OK")}, {Client: 3, ID: 4, Resp: []byte("OK 1")}}}
	for i := 0; i < pairs; i++ {
		snap.Pairs = append(snap.Pairs, KV{Key: fmt.Sprintf("snap-%06d", i), Value: value})
	}
	if err := l.WriteSnapshot(tail, snap); err != nil {
		t.Fatal(err)
	}
	for s := 0; s <= segs; s++ {
		for i := 0; i < 20; i++ {
			if err := l.AppendSync(&Record{Kind: KindSet, Client: 9, ID: uint64(100*s + i + 1), Key: fmt.Sprintf("seg%d-%d", s, i), Value: value}); err != nil {
				t.Fatal(err)
			}
		}
		if s < segs {
			if _, err := l.Rotate(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return l
}

// TestDump_EveryItemExactlyOnce: an uninterrupted dump yields every
// snapshot pair and dedupe entry, and every segment frame byte for
// byte, exactly once — across many chunk boundaries.
func TestDump_EveryItemExactlyOnce(t *testing.T) {
	const pairs, segs = 500, 3
	l := snapshotLog(t, pairs, segs, "v")
	chunks := dumpAll(t, l, 256)
	if len(chunks) < 20 {
		t.Fatalf("a 256-byte budget should force many chunks, got %d", len(chunks))
	}

	seen := map[string]int{}
	for _, c := range chunks {
		for _, f := range splitFrames(t, c) {
			seen[string(f)]++
		}
	}
	want := map[string]bool{}
	for i := 0; i < pairs; i++ {
		want[string(AppendStreamRecord(nil, &Record{Kind: KindSet, Key: fmt.Sprintf("snap-%06d", i), Value: "v"}))] = true
	}
	want[string(AppendStreamDedupe(nil, DedupeEntry{Client: 1, ID: 2, Resp: []byte("OK")}))] = true
	want[string(AppendStreamDedupe(nil, DedupeEntry{Client: 3, ID: 4, Resp: []byte("OK 1")}))] = true
	l.mu.Lock()
	seqs := append(append([]uint64(nil), l.sealed...), l.actSeq)
	l.mu.Unlock()
	for _, seq := range seqs {
		data, err := os.ReadFile(l.segPath(seq))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range splitFrames(t, data) {
			want[string(f)] = true
		}
	}
	if len(want) != pairs+2+20*(segs+1) {
		t.Fatalf("test setup: %d distinct frames expected", len(want))
	}
	for f := range want {
		if seen[f] != 1 {
			t.Fatalf("frame %x dumped %d times, want once", f, seen[f])
		}
	}
	if len(seen) != len(want) {
		t.Fatalf("dump produced %d distinct frames, want %d", len(seen), len(want))
	}
	if l.dump.img != nil {
		t.Fatal("the dump still holds its snapshot copy after reaching the segments")
	}
}

// TestDump_SnapshotReplacedMidDumpIsStale: the snapshot phase's cursor
// indexes one particular snapshot. A snapshot written between two
// chunks lists its pairs in a different order, so the next chunk must
// fail with ErrStaleCursor instead of resuming at the old index in the
// new list, which would silently skip pairs.
func TestDump_SnapshotReplacedMidDumpIsStale(t *testing.T) {
	l := snapshotLog(t, 200, 1, "v")
	_, next, _, _, err := l.DumpChunk(0, 512)
	if err != nil {
		t.Fatal(err)
	}
	if next&snapCursorBit == 0 {
		t.Fatalf("first chunk of 200 pairs at 512 bytes should stay in the snapshot phase, next = %#x", next)
	}
	// The same cursor still resumes while the snapshot stands.
	if _, _, _, _, err := l.DumpChunk(next, 512); err != nil {
		t.Fatalf("resume before any new snapshot: %v", err)
	}
	tail, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WriteSnapshot(tail, &Snapshot{Pairs: []KV{{Key: "other", Value: "x"}}}); err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, err := l.DumpChunk(next, 512); !errors.Is(err, ErrStaleCursor) {
		t.Fatalf("cursor into a replaced snapshot: want ErrStaleCursor, got %v", err)
	}
	if l.dump.img != nil {
		t.Fatal("WriteSnapshot left the old snapshot copy held")
	}
	// A restart from zero streams the new snapshot.
	var got []string
	for _, c := range dumpAll(t, l, 512) {
		items, err := DecodeStream(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range items {
			if it.Rec != nil && !strings.HasPrefix(it.Rec.Key, "seg") {
				got = append(got, it.Rec.Key)
			}
		}
	}
	if len(got) != 1 || got[0] != "other" {
		t.Fatalf("restarted dump's snapshot pairs = %v, want [other]", got)
	}
}

// TestDump_ReadsSnapshotOnce is the linear-dump gate: dumping an S-byte
// snapshot in k >= 8 chunks reads and decodes the file once, so the
// whole dump allocates about S for the read plus S for the chunks it
// returns. Reloading the snapshot for every chunk costs about k·S.
func TestDump_ReadsSnapshotOnce(t *testing.T) {
	l := snapshotLog(t, 20000, 0, strings.Repeat("x", 200))
	fi, err := os.Stat(l.dir + "/" + snapName)
	if err != nil {
		t.Fatal(err)
	}
	size := int(fi.Size())
	budget := size / 10

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	chunks, cur := 0, uint64(0)
	for cur == 0 || cur&snapCursorBit != 0 {
		_, next, _, _, err := l.DumpChunk(cur, budget)
		if err != nil {
			t.Fatal(err)
		}
		chunks++
		cur = next
	}
	runtime.ReadMemStats(&after)
	if chunks < 8 {
		t.Fatalf("snapshot of %d bytes dumped in %d chunks, want >= 8", size, chunks)
	}
	alloc := int(after.TotalAlloc - before.TotalAlloc)
	t.Logf("snapshot %d bytes, %d chunks, %d bytes allocated (%.2f×S)", size, chunks, alloc, float64(alloc)/float64(size))
	if alloc >= 3*size {
		t.Fatalf("dump allocated %d bytes for a %d-byte snapshot in %d chunks, want < 3×S: the snapshot is being reread per chunk", alloc, size, chunks)
	}
	if l.dump.img != nil {
		t.Fatal("snapshot copy not released once the dump reached the segments")
	}
}

// TestDump_ConcurrentDumpsShareOneCopy: two dumps interleaving chunk by
// chunk both see every snapshot pair once, though only one copy is held
// and each resumes where the other did not leave it.
func TestDump_ConcurrentDumpsShareOneCopy(t *testing.T) {
	const pairs = 300
	l := snapshotLog(t, pairs, 0, "v")
	curs := []uint64{0, 0}
	counts := []map[string]int{{}, {}}
	for active := 2; active > 0; {
		active = 0
		for i := range curs {
			if curs[i] == ^uint64(0) {
				continue
			}
			active++
			blob, next, done, _, err := l.DumpChunk(curs[i], 300+100*i)
			if err != nil {
				t.Fatal(err)
			}
			items, err := DecodeStream(blob)
			if err != nil {
				t.Fatal(err)
			}
			for _, it := range items {
				if it.Rec != nil {
					counts[i][it.Rec.Key]++
				}
			}
			curs[i] = next
			if done {
				curs[i] = ^uint64(0)
			}
		}
	}
	for i, m := range counts {
		for k := 0; k < pairs; k++ {
			if n := m[fmt.Sprintf("snap-%06d", k)]; n != 1 {
				t.Fatalf("dump %d saw snap-%06d %d times", i, k, n)
			}
		}
	}
}

// TestDump_ConcurrentWithSnapshotWrites runs dumps on several
// goroutines while another rewrites the snapshot, each time with the
// same pairs in a new order. Every dump either hits ErrStaleCursor (and
// restarts) or completes having seen each pair exactly once — never a
// skipped or doubled pair from resuming an index into a reshuffled
// snapshot.
func TestDump_ConcurrentWithSnapshotWrites(t *testing.T) {
	const pairs = 400
	l := snapshotLog(t, pairs, 0, "v")
	base := make([]KV, pairs)
	for i := range base {
		base[i] = KV{Key: fmt.Sprintf("snap-%06d", i), Value: "v"}
	}
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		rng := rand.New(rand.NewSource(1))
		for {
			select {
			case <-stop:
				return
			default:
			}
			tail, err := l.Rotate()
			if err != nil {
				t.Error(err)
				return
			}
			shuffled := append([]KV(nil), base...)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			if err := l.WriteSnapshot(tail, &Snapshot{Pairs: shuffled}); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	var dumpers sync.WaitGroup
	for d := 0; d < 3; d++ {
		dumpers.Add(1)
		go func() {
			defer dumpers.Done()
			for completed := 0; completed < 5; {
				seen := map[string]int{}
				cur, stale := uint64(0), false
				for {
					blob, next, done, _, err := l.DumpChunk(cur, 512)
					if errors.Is(err, ErrStaleCursor) {
						stale = true
						break
					}
					if err != nil {
						t.Error(err)
						return
					}
					items, err := DecodeStream(blob)
					if err != nil {
						t.Error(err)
						return
					}
					for _, it := range items {
						if it.Rec != nil && strings.HasPrefix(it.Rec.Key, "snap-") {
							seen[it.Rec.Key]++
						}
					}
					if done {
						break
					}
					cur = next
				}
				if stale {
					continue
				}
				completed++
				for _, kv := range base {
					if seen[kv.Key] != 1 {
						t.Errorf("completed dump saw %s %d times", kv.Key, seen[kv.Key])
						return
					}
				}
			}
		}()
	}
	dumpers.Wait()
	close(stop)
	writer.Wait()
}

// filterChunk builds a stream chunk that mixes every frame kind.
func filterChunk() (chunk []byte, sets [][]byte) {
	for _, r := range []*Record{
		{Kind: KindSet, Client: 4, ID: 1, Key: "keep-a", Value: "1"},
		{Kind: KindSet, Client: 4, ID: 2, Key: "drop-b", Value: "2"},
		{Kind: KindSet, Key: "keep-c", Value: "3"},
	} {
		f := AppendStreamRecord(nil, r)
		sets = append(sets, f)
		chunk = append(chunk, f...)
	}
	chunk = AppendStreamDedupe(chunk, DedupeEntry{Client: 4, ID: 2, Resp: []byte("OK")})
	chunk = AppendStreamRecord(chunk, &Record{Kind: KindMPut, Client: 4, ID: 3, Pairs: []KV{{Key: "keep-d", Value: "4"}, {Key: "drop-e", Value: "5"}}})
	chunk = AppendStreamRecord(chunk, &Record{Kind: KindDel, Key: "keep-f"})
	chunk = AppendStreamRecord(chunk, &Record{Kind: KindMDel, Keys: []string{"keep-g"}})
	return chunk, sets
}

func keepPrefix(key string) bool { return strings.HasPrefix(key, "keep-") }

// TestFilterStream_KeptSetFramesAreVerbatim: the Set frames a filter
// keeps are the source's frames byte for byte, so the receiver checks
// the source's own CRCs — read here straight out of a real segment.
func TestFilterStream_KeptSetFramesAreVerbatim(t *testing.T) {
	l, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("drop-%d", i)
		if i%3 == 0 {
			key = fmt.Sprintf("keep-%d", i)
		}
		if err := l.AppendSync(&Record{Kind: KindSet, Client: 7, ID: uint64(i + 1), Key: key, Value: fmt.Sprintf("v%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	seg, err := os.ReadFile(l.segPath(1))
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, f := range splitFrames(t, seg) {
		items, err := DecodeStream(f)
		if err != nil {
			t.Fatal(err)
		}
		if keepPrefix(items[0].Rec.Key) {
			want = append(want, f...)
		}
	}
	got, err := FilterStream(nil, seg, keepPrefix)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("filtered Set frames differ from the segment's frames:\n got %x\nwant %x", got, want)
	}
	if all, err := FilterStream(nil, seg, func(string) bool { return true }); err != nil || !bytes.Equal(all, seg) {
		t.Fatalf("keep-all filter of a Set-only segment is not the identity (err %v)", err)
	}
}

// TestFilterStream_FrameKinds: dedupe frames pass through verbatim,
// MPut records are flattened to one Set per kept pair, Del and MDel
// are dropped, and keep decides for Sets and MPut pairs alike.
func TestFilterStream_FrameKinds(t *testing.T) {
	chunk, sets := filterChunk()
	got, err := FilterStream([]byte("prefix"), chunk, keepPrefix)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(got, []byte("prefix")) {
		t.Fatal("FilterStream must append to dst")
	}
	var want []byte
	want = append(want, sets[0]...)
	want = append(want, sets[2]...)
	want = AppendStreamDedupe(want, DedupeEntry{Client: 4, ID: 2, Resp: []byte("OK")})
	want = AppendStreamRecord(want, &Record{Kind: KindSet, Key: "keep-d", Value: "4"})
	if !bytes.Equal(got[len("prefix"):], want) {
		t.Fatalf("filtered chunk:\n got %x\nwant %x", got[len("prefix"):], want)
	}
}

// TestFilterStream_CorruptChunk: a truncated chunk, a flipped bit, or a
// malformed payload under a valid CRC fails the whole chunk with
// ErrCorrupt and returns nothing.
func TestFilterStream_CorruptChunk(t *testing.T) {
	chunk, _ := filterChunk()
	for cut := 1; cut < len(chunk); cut++ {
		if got, err := FilterStream(nil, chunk[:cut], keepPrefix); err == nil {
			if _, derr := DecodeStream(chunk[:cut]); derr != nil {
				t.Fatalf("cut at %d: filter accepted what the decoder rejects (%v)", cut, derr)
			}
		} else if !errors.Is(err, ErrCorrupt) || got != nil {
			t.Fatalf("cut at %d: got (%x, %v), want (nil, ErrCorrupt)", cut, got, err)
		}
	}
	if _, err := FilterStream(nil, chunk[:len(chunk)-1], keepPrefix); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated chunk: want ErrCorrupt, got %v", err)
	}
	for i := range chunk {
		mut := append([]byte(nil), chunk...)
		mut[i] ^= 0x10
		if _, err := FilterStream(nil, mut, keepPrefix); err == nil {
			t.Fatalf("flip at %d filtered cleanly", i)
		}
	}
	// Well-framed but malformed payloads: a Set with trailing bytes, an
	// empty key, an unknown kind.
	for _, payload := range [][]byte{
		append((&Record{Kind: KindSet, Key: "keep-x", Value: "v"}).encode(nil), 0),
		{byte(KindSet), 0, 0, 0, 1, 'v'},
		{9, 0, 0},
	} {
		if _, err := FilterStream(nil, appendFrame(nil, payload), keepPrefix); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("payload %x: want ErrCorrupt, got %v", payload, err)
		}
	}
}
