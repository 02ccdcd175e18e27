package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call from the benchmark into a layer. Times are
// nanoseconds since the tracer started; parent is the global id of the
// span that caused this one (-1 for a root), op the operation id shared
// by every span of one client op or one recovery phase.
type span struct {
	name       string
	start, end int64
	parent     int64
	op         int64
}

// tracer keeps spans in memory, one recorder per goroutine so recording
// takes no lock, and writes them out when the run ends. When on is
// false nothing is recorded: untraced runs never turn it on, and the
// traced run turns it off for alternate slices to measure its overhead.
type tracer struct {
	on   atomic.Bool
	t0   time.Time
	mu   sync.Mutex
	recs []*recorder
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// recorder is one goroutine's span buffer. A span's global id is the
// recorder's index in the high 32 bits and the span's index in the low.
type recorder struct {
	tr    *tracer
	id    int64
	spans []span
}

func (t *tracer) recorder() *recorder {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := &recorder{tr: t, id: int64(len(t.recs))}
	t.recs = append(t.recs, r)
	return r
}

// begin opens a span and returns its id, or -1 when tracing is off.
func (r *recorder) begin(name string, parent, op int64) int64 {
	if !r.tr.on.Load() {
		return -1
	}
	r.spans = append(r.spans, span{name: name, start: int64(time.Since(r.tr.t0)), parent: parent, op: op})
	return r.id<<32 | int64(len(r.spans)-1)
}

// end closes the span begin returned.
func (r *recorder) end(id int64) {
	if id < 0 {
		return
	}
	r.spans[id&0xffffffff].end = int64(time.Since(r.tr.t0))
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, r := range t.recs {
		n += len(r.spans)
	}
	return n
}

// selfTime is one span name's mean self time over n spans.
type selfTime struct {
	mean time.Duration
	n    int
}

// selfTimes returns, per span name, the mean self time — the span's
// duration minus the part of it that its children cover — and the
// span count. Children may run on other goroutines and overlap, so
// their intervals are merged before subtracting. Call it only after
// every recording goroutine has finished.
func (t *tracer) selfTimes() map[string]selfTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	type iv struct{ lo, hi int64 }
	children := map[int64][]iv{}
	for _, r := range t.recs {
		for _, s := range r.spans {
			if s.parent >= 0 {
				children[s.parent] = append(children[s.parent], iv{s.start, s.end})
			}
		}
	}
	sum := map[string]int64{}
	cnt := map[string]int{}
	for _, r := range t.recs {
		for i, s := range r.spans {
			self := s.end - s.start
			if cs := children[r.id<<32|int64(i)]; len(cs) > 0 {
				sort.Slice(cs, func(a, b int) bool { return cs[a].lo < cs[b].lo })
				lo, hi := int64(-1), int64(-1)
				for _, c := range cs {
					c.lo, c.hi = max(c.lo, s.start), min(c.hi, s.end)
					if c.hi <= c.lo {
						continue
					}
					if c.lo > hi {
						self -= hi - lo
						lo, hi = c.lo, c.hi
					} else {
						hi = max(hi, c.hi)
					}
				}
				self -= hi - lo
			}
			sum[s.name] += self
			cnt[s.name]++
		}
	}
	out := map[string]selfTime{}
	for name, n := range cnt {
		out[name] = selfTime{mean: time.Duration(sum[name] / int64(n)), n: n}
	}
	return out
}

// write saves every span as one tab-separated line: global id, name,
// start and end in ns since the run started, parent id, op id.
func (t *tracer) write(path, header string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "# %s\n# id\tname\tstart_ns\tend_ns\tparent\top\n", header)
	t.mu.Lock()
	for _, r := range t.recs {
		for i, s := range r.spans {
			fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\n", r.id<<32|int64(i), s.name, s.start, s.end, s.parent, s.op)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
