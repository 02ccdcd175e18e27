package sockets

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/merkle"
	"repro/internal/sockets/wire"
	"repro/internal/version"
	"repro/internal/wal"
)

// SETV outcome codes, carried in the RespCount body (RespCodes for MSETV).
// The verb is a version-conditional set: the server decodes the stored
// value's stamp, compares it to the incoming one, and applies the write
// only if the incoming version wins the cluster's total order. The
// split between plain and concurrent outcomes is what lets hint replay
// count conflicting histories instead of silently dropping them.
const (
	// SetVApplied: the incoming version strictly dominates what was
	// stored (or nothing decodable was stored) — the write landed.
	SetVApplied uint64 = 0
	// SetVAppliedConcurrent: the versions were causally concurrent and
	// the incoming one won the tiebreak — the write landed.
	SetVAppliedConcurrent uint64 = 1
	// SetVStale: the stored version dominates or equals the incoming
	// one — nothing changed.
	SetVStale uint64 = 2
	// SetVStaleConcurrent: the versions were causally concurrent and
	// the stored one won the tiebreak — nothing changed.
	SetVStaleConcurrent uint64 = 3
)

// SetVAppliedCode reports whether a SETV outcome code means the write
// was applied.
func SetVAppliedCode(code uint64) bool {
	return code == SetVApplied || code == SetVAppliedConcurrent
}

// setvOutcome compares an incoming encoded value against the stored one
// and decides whether to apply. An undecodable or missing stored value
// loses: SETV's callers always carry well-formed stamps, so whatever is
// there predates the versioning scheme or was corrupted — either way
// the stamped write is the one to keep.
func setvOutcome(cur string, curOK bool, in version.Version) (apply bool, code uint64) {
	if !curOK {
		return true, SetVApplied
	}
	curV, _, _, err := version.Decode(cur)
	if err != nil {
		return true, SetVApplied
	}
	conc := in.Compare(curV) == version.Concurrent
	switch {
	case version.Newer(in, curV) && conc:
		return true, SetVAppliedConcurrent
	case version.Newer(in, curV):
		return true, SetVApplied
	case conc:
		return false, SetVStaleConcurrent
	}
	return false, SetVStale
}

// setvWrite is one validated version-conditional write.
type setvWrite struct {
	key, value string
	in         version.Version
	frame      []byte // when set, the KindSet record frame to log as is
}

// newSetVWrite validates one SETV pair: a well-formed key and a value
// carrying a version stamp. An unstamped payload can neither be
// compared nor later compete against stamped values.
func newSetVWrite(key, value string) (setvWrite, error) {
	if err := validateKey(key); err != nil {
		return setvWrite{}, err
	}
	in, _, _, err := version.Decode(value)
	if err != nil {
		return setvWrite{}, fmt.Errorf("setv: %w", err)
	}
	return setvWrite{key: key, value: value, in: in}, nil
}

// applySetV serves SETV (a batch of one) and MSETV. Every pair is
// validated before any is applied: one bad key or unstamped value
// rejects the whole batch, exactly as it rejects a lone SETV.
func (s *Server) applySetV(pairs []wire.KV) ([]uint64, error) {
	ws := make([]setvWrite, len(pairs))
	for i, kv := range pairs {
		w, err := newSetVWrite(kv.Key, string(kv.Value))
		if err != nil {
			return nil, err
		}
		ws[i] = w
	}
	return s.setVBatch(ws)
}

// setVBatch is the server's one version-conditional write path, shared
// by SETV, MSETV and SYNCWAL apply; it returns one SetV* code per
// write. Each write takes its key's shard lock, compares versions, and
// when the incoming one wins stores the bytes, folds them into the
// digest and reserves its WAL position before unlocking, so log order
// equals apply order for every key. Winners are logged as plain sets:
// replay just restores the bytes and needs no version logic, and a
// rejected write never dirties the log. All tickets are reserved
// before any is waited on, so a batch shares group-commit fsyncs
// instead of paying one per key.
func (s *Server) setVBatch(ws []setvWrite) ([]uint64, error) {
	codes := make([]uint64, len(ws))
	var ticks []*wal.Ticket
	for i, w := range ws {
		sh := s.shardFor(w.key)
		sh.lock.Lock()
		cur, had := sh.store[w.key]
		apply, code := setvOutcome(cur, had, w.in)
		if apply {
			sh.store[w.key] = w.value
			s.digestApply(w.key, cur, w.value, had, true)
			switch {
			case s.wal == nil:
			case w.frame != nil:
				ticks = append(ticks, s.wal.BeginFrame(w.frame))
			default:
				ticks = append(ticks, s.wal.Begin(&wal.Record{Kind: wal.KindSet, Key: w.key, Value: w.value}))
			}
		}
		sh.lock.Unlock()
		codes[i] = code
	}
	for _, t := range ticks {
		if err := s.walWait(t); err != nil {
			return nil, fmt.Errorf("durability: %w", err)
		}
	}
	return codes, nil
}

// digestApply folds one store mutation into the anti-entropy digest.
// Runs under the shard lock that ordered the mutation; excluded keys
// (hints) never touch the digest.
func (s *Server) digestApply(key, oldValue, newValue string, hadOld, hasNew bool) {
	if s.syncExclude != "" && strings.HasPrefix(key, s.syncExclude) {
		return
	}
	s.digest.Apply(key, oldValue, newValue, hadOld, hasNew)
}

// clampSpan clips a wire span to the digest's bucket universe.
func clampSpan(sp wire.Span) (lo, hi int) {
	lo, hi = int(sp.Lo), int(sp.Hi)
	if hi > merkle.Buckets {
		hi = merkle.Buckets
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// applyTree answers TREE: one range hash per requested span.
func (s *Server) applyTree(r *wire.Request) *wire.Response {
	resp := &wire.Response{Tag: wire.RespHashes, ID: r.ID, Hashes: make([]uint64, 0, len(r.Spans))}
	for _, sp := range r.Spans {
		lo, hi := clampSpan(sp)
		resp.Hashes = append(resp.Hashes, s.digest.RangeHash(lo, hi))
	}
	return resp
}

// applyScan answers SCAN: every stored (key, entry hash) whose Merkle
// bucket falls inside any requested span, sorted by key. Values never
// leave the node here — the driver compares entry hashes and fetches
// only the keys that actually differ. Stripes own contiguous bucket
// ranges (shardIndex), so only the stripes overlapping a span are
// walked. They are read-locked one at a time (point-in-time per stripe,
// like COUNT); anti-entropy tolerates the skew — a transiently wrong
// hash just re-scans next round.
func (s *Server) applyScan(r *wire.Request) *wire.Response {
	resp := &wire.Response{Tag: wire.RespScan, ID: r.ID}
	walk := make([]bool, len(s.shards))
	for _, sp := range r.Spans {
		lo, hi := clampSpan(sp)
		if lo == hi {
			continue
		}
		for i := stripeOf(lo, len(s.shards)); i <= stripeOf(hi-1, len(s.shards)); i++ {
			walk[i] = true
		}
	}
	for i := range s.shards {
		if !walk[i] {
			continue
		}
		sh := &s.shards[i]
		sh.lock.RLock()
		for k, v := range sh.store {
			if s.syncExclude != "" && strings.HasPrefix(k, s.syncExclude) {
				continue
			}
			b := uint32(merkle.BucketOf(k))
			for _, sp := range r.Spans {
				if b >= sp.Lo && b < sp.Hi {
					resp.Scan = append(resp.Scan, wire.ScanEntry{Key: k, Hash: merkle.EntryHash(k, v)})
					break
				}
			}
		}
		sh.lock.RUnlock()
	}
	sort.Slice(resp.Scan, func(i, j int) bool { return resp.Scan[i].Key < resp.Scan[j].Key })
	return resp
}
