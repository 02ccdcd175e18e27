// The SYNCWAL stream format: how one node's durable history travels to
// a peer as raw CRC-checked frames instead of key-by-key scans.
//
// A stream is a concatenation of the same uvarint-length + CRC32C
// frames the segment files use. Record frames are copied out of sealed
// segments verbatim — same payload bytes, same checksum, no re-encode —
// so the receiver re-verifies the exact bits that were fsynced at the
// source. Snapshot contents are synthesized into KindSet record frames,
// and dedupe entries ride in the same framing under a reserved kind
// byte that no Record can carry, so the retry-dedupe identities of
// acked mutations survive re-replication too.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// streamDedupeKind is the payload tag for a dedupe entry inside a
// stream frame. Record kinds occupy 1..4; this sits far outside any
// value decodeRecord will ever accept, so a frame's first payload byte
// unambiguously routes it.
const streamDedupeKind = 0xFA

// ErrStaleCursor means a DumpChunk cursor named a segment that has
// since been compacted into a snapshot: the chunks already shipped may
// predate that snapshot, so the only consistent move is to restart the
// dump from zero.
var ErrStaleCursor = errors.New("wal: stale dump cursor")

// StreamItem is one decoded stream frame: exactly one of Rec or Dedupe
// is set.
type StreamItem struct {
	Rec    *Record
	Dedupe *DedupeEntry
}

// AppendStreamRecord frames one record onto dst.
func AppendStreamRecord(dst []byte, r *Record) []byte {
	return appendFrame(dst, r.encode(nil))
}

// AppendStreamDedupe frames one dedupe entry onto dst.
func AppendStreamDedupe(dst []byte, e DedupeEntry) []byte {
	p := []byte{streamDedupeKind}
	p = binary.AppendUvarint(p, e.Client)
	p = binary.AppendUvarint(p, e.ID)
	p = appendString(p, string(e.Resp))
	return appendFrame(dst, p)
}

// DecodeStream walks a stream chunk and decodes every frame. Unlike
// segment replay there is no tolerable tear: the bytes arrived over a
// connection that delivered them whole, so anything short or mismatched
// is ErrCorrupt and the caller must discard the chunk.
func DecodeStream(data []byte) ([]StreamItem, error) {
	var items []StreamItem
	err := WalkStream(data, func(it StreamItem, _ []byte) {
		if it.Rec != nil {
			rec := *it.Rec
			it.Rec = &rec
		}
		items = append(items, it)
	})
	if err != nil {
		return nil, err
	}
	return items, nil
}

// WalkStream decodes a stream chunk frame by frame, checked exactly as
// DecodeStream checks it, and calls fn with each item and the frame it
// came from (a sub-slice of data). it.Rec is reused between calls. A
// bad frame stops the walk with ErrCorrupt after fn has seen the frames
// before it, so a caller that must refuse a damaged chunk whole acts
// on nothing until WalkStream returns nil.
func WalkStream(data []byte, fn func(it StreamItem, frame []byte)) error {
	var rec Record
	for off := 0; off < len(data); {
		payload, n, err := readStreamFrame(data, off)
		if err != nil {
			return err
		}
		if payload[0] == streamDedupeKind {
			e, err := decodeDedupe(payload)
			if err != nil {
				return err
			}
			fn(StreamItem{Dedupe: &e}, data[off:off+n])
		} else {
			rec = Record{}
			if err := decodeRecordInto(payload, &rec); err != nil {
				return err
			}
			fn(StreamItem{Rec: &rec}, data[off:off+n])
		}
		off += n
	}
	return nil
}

// FilterStream appends to dst the frames of a stream chunk that a
// receiver should ingest, checking every frame as DecodeStream does:
//   - dedupe frames, and Set frames whose key keep admits, are copied
//     verbatim, so the receiver re-verifies the source's own bytes and
//     checksum;
//   - MPut records are flattened into one Set frame per admitted pair;
//   - Del and MDel records are dropped.
//
// Set frames, the bulk of any dump, are checked in place without
// decoding their values. Any truncated or corrupt frame fails the whole
// chunk with ErrCorrupt.
func FilterStream(dst, chunk []byte, keep func(key string) bool) ([]byte, error) {
	for off := 0; off < len(chunk); {
		payload, n, err := readStreamFrame(chunk, off)
		if err != nil {
			return nil, err
		}
		frame := chunk[off : off+n]
		off += n
		switch payload[0] {
		case streamDedupeKind:
			if _, err := decodeDedupe(payload); err != nil {
				return nil, err
			}
			dst = append(dst, frame...)
		case byte(KindSet):
			key, err := setKey(payload)
			if err != nil {
				return nil, err
			}
			if keep(key) {
				dst = append(dst, frame...)
			}
		default:
			var rec Record
			if err := decodeRecordInto(payload, &rec); err != nil {
				return nil, err
			}
			for _, kv := range rec.Pairs { // KindMPut only
				if keep(kv.Key) {
					dst = AppendStreamRecord(dst, &Record{Kind: KindSet, Key: kv.Key, Value: kv.Value})
				}
			}
		}
	}
	return dst, nil
}

// readStreamFrame reads the frame at data[off:], mapping a tear to
// ErrCorrupt: a stream has no tolerable tail.
func readStreamFrame(data []byte, off int) (payload []byte, n int, err error) {
	payload, n, err = readFrame(data[off:])
	if errors.Is(err, errTorn) {
		return nil, 0, fmt.Errorf("%w: truncated stream frame at offset %d", ErrCorrupt, off)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("%w at stream offset %d", err, off)
	}
	return payload, n, nil
}

// decodeDedupe decodes a stream dedupe payload, tag byte included.
func decodeDedupe(payload []byte) (e DedupeEntry, err error) {
	c := &cursor{buf: payload[1:]}
	if e.Client, err = c.uvarint(); err != nil {
		return e, err
	}
	if e.ID, err = c.uvarint(); err != nil {
		return e, err
	}
	resp, err := c.raw()
	if err != nil {
		return e, err
	}
	if len(c.buf) != 0 {
		return e, fmt.Errorf("%w: %d trailing dedupe bytes", ErrCorrupt, len(c.buf))
	}
	e.Resp = append([]byte{}, resp...)
	return e, nil
}

// setKey checks a KindSet payload exactly as decodeRecord would and
// returns its key, leaving the value undecoded.
func setKey(payload []byte) (string, error) {
	c := &cursor{buf: payload[1:]}
	if _, err := c.uvarint(); err != nil { // client
		return "", err
	}
	if _, err := c.uvarint(); err != nil { // ID
		return "", err
	}
	key, err := c.key()
	if err != nil {
		return "", err
	}
	if _, err := c.raw(); err != nil {
		return "", err
	}
	if len(c.buf) != 0 {
		return "", fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(c.buf))
	}
	return key, nil
}

// Dump cursors. Zero starts a dump. A snapshot-phase cursor sets
// snapCursorBit and names the snapshot it indexes — bits 32..62 carry
// the snapshot generation, the low 32 bits the next item — so a cursor
// into a snapshot that has since been replaced is stale rather than an
// index into different contents. A segment-phase cursor is
// seq<<32 | byte offset, which leaves snapCursorBit clear while segment
// sequences stay below 2^31.
const (
	snapCursorBit = 1 << 63
	snapGenMask   = 1<<31 - 1
)

func snapCursor(gen uint64, idx int) uint64 {
	return snapCursorBit | (gen&snapGenMask)<<32 | uint64(uint32(idx))
}

// dumpState is the snapshot copy a dump holds while it streams the
// snapshot: the verified image, the generation it was read under, and
// where the last chunk stopped, so the next chunk resumes without a
// rescan.
type dumpState struct {
	img *snapImage
	gen uint64
	pos snapPos
}

// The synthesized headers a snapshot item is framed behind: a KindSet
// record with no dedupe identity (client 0, ID 0), and a dedupe entry.
var (
	snapSetHead    = []byte{byte(KindSet), 0, 0}
	snapDedupeHead = []byte{streamDedupeKind}
)

// DumpChunk produces the next chunk of a full-log dump: the snapshot
// first (synthesized frames), then every segment in sequence order —
// sealed ones byte-for-byte, and finally the active segment's
// currently-readable valid prefix, so everything fsynced at the moment
// of the walk is included. The cursor is opaque to callers: pass 0 to
// start and the returned next thereafter; done reports the walk has
// passed the end of the active segment.
//
// The snapshot file is read and verified once per dump: the log keeps
// that one copy between calls and drops it when the dump moves on to
// the segments (or a new snapshot replaces it). Segments are read one
// per chunk that touches them. The dump takes no locks across calls, so
// a log owner keeps serving appends, rotations, and snapshots while
// being dumped. The price is that a snapshot write between chunks makes
// the next DumpChunk fail with ErrStaleCursor — in the snapshot phase
// because the cursor indexes the replaced snapshot, in the segment
// phase once the write has pruned the cursor's segment — and the caller
// restarts from zero. Frames the receiver applies twice are harmless —
// the consumer applies them version-conditionally.
//
// A frame too large for maxBytes is skipped rather than shipped (the
// count comes back in skipped); the caller's follow-up Merkle pass
// repairs those keys. maxBytes is a soft target: at least one frame is
// emitted per call when one fits.
func (l *Log) DumpChunk(cur uint64, maxBytes int) (blob []byte, next uint64, done bool, skipped int, err error) {
	if maxBytes <= 0 {
		return nil, 0, false, 0, errors.New("wal: DumpChunk maxBytes must be positive")
	}
	if cur == 0 || cur&snapCursorBit != 0 {
		blob, next, skipped, err = l.dumpSnapshot(cur, maxBytes)
		return blob, next, false, skipped, err
	}
	l.mu.Lock()
	if serr := l.stateErrLocked(); serr != nil {
		l.mu.Unlock()
		return nil, 0, false, 0, serr
	}
	sealed := append([]uint64(nil), l.sealed...)
	act := l.actSeq
	l.mu.Unlock()

	seq := cur >> 32
	off := int(cur & 0xffffffff)
	data, rerr := os.ReadFile(l.segPath(seq))
	if os.IsNotExist(rerr) {
		return nil, 0, false, 0, ErrStaleCursor
	}
	if rerr != nil {
		return nil, 0, false, 0, rerr
	}
	tolerant := seq >= act // the active segment may end mid-write
	for off < len(data) {
		_, n, ferr := readFrame(data[off:])
		if errors.Is(ferr, errTorn) {
			if tolerant {
				break // end of the fsynced prefix
			}
			return nil, 0, false, 0, fmt.Errorf("wal: dump %s: %w: torn frame inside a sealed segment at offset %d", l.segPath(seq), ErrCorrupt, off)
		}
		if ferr != nil {
			return nil, 0, false, 0, fmt.Errorf("wal: dump %s: %w at offset %d", l.segPath(seq), ferr, off)
		}
		if len(blob)+n > maxBytes {
			if n > maxBytes {
				off += n
				skipped++
				continue
			}
			return blob, seq<<32 | uint64(off), false, skipped, nil
		}
		blob = append(blob, data[off:off+n]...)
		off += n
	}
	if ns, ok := nextSeqAfter(seq, sealed, act); ok {
		return blob, ns << 32, false, skipped, nil
	}
	return blob, 0, true, skipped, nil
}

// dumpSnapshot emits snapshot contents from the cursor's item: pairs
// first, then dedupe entries, each framed straight from the snapshot's
// bytes. When the snapshot is exhausted (or absent) the cursor advances
// to the first segment and the held copy is dropped.
func (l *Log) dumpSnapshot(cur uint64, maxBytes int) (blob []byte, next uint64, skipped int, err error) {
	l.dumpMu.Lock()
	defer l.dumpMu.Unlock()
	// Under dumpMu the generation, the segment list and the file on disk
	// all describe the same snapshot: WriteSnapshot changes the three
	// together under the same lock.
	l.mu.Lock()
	if serr := l.stateErrLocked(); serr != nil {
		l.mu.Unlock()
		return nil, 0, 0, serr
	}
	gen := l.snapGen
	first, _ := nextSeqAfter(0, l.sealed, l.actSeq) // the active segment always exists
	l.mu.Unlock()

	idx := 0
	if cur != 0 {
		if (cur>>32)&snapGenMask != gen&snapGenMask {
			return nil, 0, 0, ErrStaleCursor
		}
		idx = int(uint32(cur))
	}
	d := &l.dump
	if d.img == nil || d.gen != gen {
		img, err := readSnapImage(filepath.Join(l.dir, snapName))
		if err != nil {
			return nil, 0, 0, err
		}
		if img == nil {
			return nil, first << 32, 0, nil
		}
		*d = dumpState{img: img, gen: gen, pos: snapPos{off: img.first}}
	}
	img, total := d.img, d.img.pairs+d.img.dedupes
	if idx > total {
		return nil, 0, 0, fmt.Errorf("wal: dump cursor item %d past the snapshot's %d", idx, total)
	}
	p := d.pos
	if p.idx != idx {
		// Not where the last chunk stopped: a retried chunk, or a second
		// dump sharing the copy. Walk to the item without decoding.
		p = snapPos{off: img.first}
		for p.idx < idx {
			if _, err := img.next(&p); err != nil {
				return nil, 0, 0, err
			}
		}
	}
	blob = make([]byte, 0, min(maxBytes, len(img.payload)-p.off+16*(total-p.idx)))
	for p.idx < total {
		at := p
		raw, err := img.next(&p)
		if err != nil {
			return nil, 0, 0, err
		}
		head := snapSetHead
		if at.idx >= img.pairs {
			head = snapDedupeHead
		}
		if n := frameLen(len(head) + len(raw)); len(blob)+n > maxBytes {
			if n > maxBytes {
				skipped++
				continue
			}
			d.pos = at
			return blob, snapCursor(gen, at.idx), skipped, nil
		}
		blob = appendFrameParts(blob, head, raw)
	}
	*d = dumpState{}
	return blob, first << 32, skipped, nil
}

// nextSeqAfter is the smallest live segment sequence greater than seq,
// considering sealed segments and the active one.
func nextSeqAfter(seq uint64, sealed []uint64, act uint64) (uint64, bool) {
	best, ok := uint64(0), false
	for _, s := range sealed {
		if s > seq && (!ok || s < best) {
			best, ok = s, true
		}
	}
	if act > seq && (!ok || act < best) {
		best, ok = act, true
	}
	return best, ok
}

// dropDump releases the snapshot copy a dump may still hold — one that
// was abandoned mid-snapshot — when the log shuts down.
func (l *Log) dropDump() {
	l.dumpMu.Lock()
	l.dump = dumpState{}
	l.dumpMu.Unlock()
}
