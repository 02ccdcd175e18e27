package wal

import (
	"fmt"
	"os"
	"path/filepath"
)

// Scrub re-reads every sealed segment and the snapshot file and
// re-verifies their CRCs — the background defense against bit rot that
// write-time checksums cannot give: a frame that was durable and valid
// when fsynced can still decay on the platter, and without scrubbing
// the first reader to notice is the next crash recovery, at the worst
// possible moment. One call is one full pass; the owner runs it on a
// low-priority timer.
//
// A sealed segment is immutable from the moment it is sealed, so any
// decode failure — torn frame included — is corruption, reported with
// the segment path. A segment or snapshot that vanishes mid-pass was
// pruned by a concurrent snapshot write and is skipped, not counted.
// The pass always visits everything before returning; the error is the
// first corruption found. ScrubbedSegments and ScrubErrors accumulate
// across passes.
func (l *Log) Scrub() (segments int, err error) {
	l.mu.Lock()
	if l.closed || l.crashed {
		l.mu.Unlock()
		return 0, l.stateErrLocked()
	}
	sealed := append([]uint64(nil), l.sealed...)
	l.mu.Unlock()

	for _, seq := range sealed {
		path := l.segPath(seq)
		data, rerr := os.ReadFile(path)
		if os.IsNotExist(rerr) {
			continue // pruned under us by a snapshot write
		}
		if rerr == nil {
			_, _, rerr = replaySegment(data, false, nil)
		}
		if rerr != nil {
			l.scrubErrs.Add(1)
			if err == nil {
				err = fmt.Errorf("wal: scrub %s: %w", path, rerr)
			}
			continue
		}
		segments++
		l.scrubSegs.Add(1)
	}

	snapPath := filepath.Join(l.dir, snapName)
	if _, serr := readSnapImage(snapPath); serr != nil {
		l.scrubErrs.Add(1)
		if err == nil {
			err = fmt.Errorf("wal: scrub %s: %w", snapPath, serr)
		}
	}
	return segments, err
}

// ScrubbedSegments and ScrubErrors are the cumulative scrub counters:
// how many sealed segments have re-verified clean across all passes,
// and how many corruption findings the passes have surfaced.
func (l *Log) ScrubbedSegments() int64 { return l.scrubSegs.Load() }
func (l *Log) ScrubErrors() int64      { return l.scrubErrs.Load() }
