package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

const (
	snapName    = "snapshot"
	snapTmpName = "snapshot.tmp"
	snapMagic   = "walsnp01"
)

// DedupeEntry is one completed retry-dedupe recording carried by a
// snapshot: the (client, correlation) identity plus the encoded
// response to replay, so a mutation acked just before a crash stays
// exactly-once when its retry arrives after the restart.
type DedupeEntry struct {
	Client uint64
	ID     uint64
	Resp   []byte
}

// Snapshot is the compacted state a log owner persists between
// snapshots: the full store contents plus the dedupe recordings still
// inside the retry horizon. Everything else is reconstructed by
// replaying the segment tail over it.
type Snapshot struct {
	Pairs  []KV
	Dedupe []DedupeEntry
}

// writeSnapshotFile persists one snapshot atomically: full payload into
// a tmp file, fsync, rename over the live name. A crash mid-write
// leaves the tmp (removed on the next Open) and the previous snapshot
// intact; there is no state in which a half-written snapshot is ever
// loaded. tail is the first segment sequence NOT covered — replay
// starts there.
func writeSnapshotFile(dir string, tail uint64, snap *Snapshot) error {
	if err := writeSnapshotTmp(dir, tail, snap); err != nil {
		return err
	}
	return os.Rename(filepath.Join(dir, snapTmpName), filepath.Join(dir, snapName))
}

// writeSnapshotTmp is writeSnapshotFile's first half: the tmp file,
// written and fsynced, ready to be renamed over the live name. The
// payload streams through a buffered writer with a running CRC instead
// of being assembled in memory first: a snapshot is as large as the
// store, and it is written while the store keeps serving.
func writeSnapshotTmp(dir string, tail uint64, snap *Snapshot) error {
	tmp := filepath.Join(dir, snapTmpName)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	w := &snapWriter{w: bufio.NewWriterSize(f, 256<<10)}
	w.w.WriteString(snapMagic)
	w.uvarint(tail)
	w.uvarint(uint64(len(snap.Pairs)))
	for _, kv := range snap.Pairs {
		w.str(kv.Key)
		w.str(kv.Value)
	}
	w.uvarint(uint64(len(snap.Dedupe)))
	for _, e := range snap.Dedupe {
		w.uvarint(e.Client)
		w.uvarint(e.ID)
		w.uvarint(uint64(len(e.Resp)))
		w.write(e.Resp)
	}
	w.w.Write(binary.BigEndian.AppendUint32(nil, w.crc))
	err = w.w.Flush() // bufio latches the first write error
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// snapWriter writes snapshot payload bytes and keeps their CRC32C.
type snapWriter struct {
	w   *bufio.Writer
	crc uint32
	tmp [binary.MaxVarintLen64]byte
}

func (sw *snapWriter) write(p []byte) {
	sw.crc = crc32.Update(sw.crc, castagnoli, p)
	sw.w.Write(p)
}

func (sw *snapWriter) uvarint(v uint64) {
	sw.write(sw.tmp[:binary.PutUvarint(sw.tmp[:], v)])
}

// str writes a length-prefixed string, staging it in the writer's own
// buffer so the CRC sees it without a copy to a byte slice.
func (sw *snapWriter) str(s string) {
	sw.uvarint(uint64(len(s)))
	if sw.w.Available() < len(s) {
		sw.w.Flush()
	}
	if sw.w.Available() < len(s) {
		sw.write([]byte(s))
		return
	}
	sw.write(append(sw.w.AvailableBuffer(), s...))
}

// snapImage is a snapshot file read whole and verified — magic, CRC and
// structure — but left encoded: its pairs and dedupe entries stay
// sub-slices of payload, walked in place with next. Recovery decodes an
// image into a Snapshot; a dump streams one without decoding at all.
type snapImage struct {
	tail     uint64
	payload  []byte
	pairs    int // pair count; the dedupe entries follow them
	dedupes  int
	first    int // offset of the first pair
	dedupeAt int // offset of the first dedupe entry
}

// snapPos is a position in a snapImage: an item index (pairs first,
// then dedupe entries) and the byte offset where that item starts.
type snapPos struct{ idx, off int }

// readSnapImage reads the snapshot file and verifies it completely. A
// missing file returns (nil, nil): recovery then replays every segment
// from the beginning. Any malformed byte is ErrCorrupt — the atomic
// write protocol means a bad snapshot is bit rot, not a tear.
func readSnapImage(path string) (*snapImage, error) {
	im, err := openSnapImage(path)
	if im == nil || err != nil {
		return nil, err
	}
	if err := im.walk(nil); err != nil {
		return nil, err
	}
	return im, nil
}

// openSnapImage reads the snapshot file and checks its magic, CRC and
// header; walk checks the items.
func openSnapImage(path string) (*snapImage, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	if len(data) < len(snapMagic)+4 || string(data[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("%w: snapshot header", ErrCorrupt)
	}
	payload := data[len(snapMagic) : len(data)-4]
	want := binary.BigEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(payload, castagnoli) != want {
		return nil, fmt.Errorf("%w: snapshot CRC mismatch", ErrCorrupt)
	}
	im := &snapImage{payload: payload}
	c := &cursor{buf: payload}
	if im.tail, err = c.uvarint(); err != nil {
		return nil, err
	}
	if im.pairs, err = c.count(); err != nil {
		return nil, err
	}
	im.first = len(payload) - len(c.buf)
	return im, nil
}

// walk checks every item in file order, passing each one's raw bytes
// to fn when fn is non-nil, and fills in the dedupe count and offset.
func (im *snapImage) walk(fn func(idx int, raw []byte)) error {
	p := snapPos{off: im.first}
	for p.idx < im.pairs {
		raw, err := im.next(&p)
		if err != nil {
			return err
		}
		if fn != nil {
			fn(p.idx-1, raw)
		}
	}
	c := &cursor{buf: im.payload[p.off:]}
	var err error
	if im.dedupes, err = c.count(); err != nil {
		return err
	}
	im.dedupeAt = len(im.payload) - len(c.buf)
	p.off = im.dedupeAt
	for p.idx < im.pairs+im.dedupes {
		raw, err := im.next(&p)
		if err != nil {
			return err
		}
		if fn != nil {
			fn(p.idx-1, raw)
		}
	}
	if p.off != len(im.payload) {
		return fmt.Errorf("%w: %d trailing snapshot bytes", ErrCorrupt, len(im.payload)-p.off)
	}
	return nil
}

// next returns the raw bytes of the item at p and advances p past it.
// A pair's raw bytes are its length-prefixed key and value — exactly a
// Set record payload after the kind, client and ID header. A dedupe
// entry's are client, ID and the length-prefixed response — exactly a
// stream dedupe payload after its tag byte.
func (im *snapImage) next(p *snapPos) ([]byte, error) {
	if p.idx == im.pairs && p.off < im.dedupeAt {
		p.off = im.dedupeAt // step over the dedupe count
	}
	c := &cursor{buf: im.payload[p.off:]}
	if p.idx < im.pairs {
		if k, err := c.raw(); err != nil {
			return nil, err
		} else if len(k) == 0 {
			return nil, fmt.Errorf("%w: zero-length key", ErrCorrupt)
		}
		if _, err := c.raw(); err != nil {
			return nil, err
		}
	} else {
		if _, err := c.uvarint(); err != nil {
			return nil, err
		}
		if _, err := c.uvarint(); err != nil {
			return nil, err
		}
		if _, err := c.raw(); err != nil {
			return nil, err
		}
	}
	end := len(im.payload) - len(c.buf)
	raw := im.payload[p.off:end]
	p.idx, p.off = p.idx+1, end
	return raw, nil
}

// loadSnapshotFile reads the snapshot back and decodes it, verifying
// it as readSnapImage does in the same single pass. A missing file
// returns (0, nil, nil).
func loadSnapshotFile(path string) (tail uint64, snap *Snapshot, err error) {
	im, err := openSnapImage(path)
	if im == nil || err != nil {
		return 0, nil, err
	}
	snap = &Snapshot{Pairs: make([]KV, 0, im.pairs)}
	err = im.walk(func(idx int, raw []byte) {
		c := &cursor{buf: raw} // raw is a checked item
		if idx < im.pairs {
			var kv KV
			kv.Key, _ = c.str()
			kv.Value, _ = c.str()
			snap.Pairs = append(snap.Pairs, kv)
			return
		}
		var e DedupeEntry
		e.Client, _ = c.uvarint()
		e.ID, _ = c.uvarint()
		resp, _ := c.raw()
		e.Resp = append([]byte(nil), resp...)
		snap.Dedupe = append(snap.Dedupe, e)
	})
	if err != nil {
		return 0, nil, err
	}
	return im.tail, snap, nil
}
