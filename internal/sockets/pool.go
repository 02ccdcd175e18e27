package sockets

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/sockets/wire"
)

// KV is one key/value pair of an MPut batch.
type KV struct {
	Key, Value string
}

// Proto selects a Pool's wire protocol.
type Proto int

const (
	// ProtoText is the legacy line-oriented protocol: one request in
	// flight per pooled connection, checkout-per-request.
	ProtoText Proto = iota
	// ProtoBinary is the pipelined binary protocol (internal/sockets/
	// wire): one shared connection multiplexes many in-flight requests,
	// matched to responses by correlation ID.
	ProtoBinary
)

func (p Proto) String() string {
	if p == ProtoBinary {
		return "binary"
	}
	return "text"
}

// ParseProto maps the -proto flag values of kvbench and clusterbench.
func ParseProto(s string) (Proto, error) {
	switch s {
	case "text":
		return ProtoText, nil
	case "binary":
		return ProtoBinary, nil
	}
	return ProtoText, fmt.Errorf("sockets: unknown protocol %q (want text or binary)", s)
}

// PoolConfig parameterizes a Pool.
type PoolConfig struct {
	// Proto selects the wire protocol (default ProtoText). With
	// ProtoBinary the pool replaces checkout-per-request with one shared
	// pipelined connection; Size then caps nothing but is kept for
	// config compatibility.
	Proto Proto
	// Size is the number of pooled connections (default 4). Requests
	// borrow one connection each; excess callers block until one frees.
	Size int
	// MaxAttempts bounds tries per request, dialing included (default 3).
	MaxAttempts int
	// Timeout is the per-attempt deadline covering dial, write, and
	// read (default 2s). A context deadline that expires sooner tightens
	// each attempt further: the effective deadline is
	// min(ctx deadline, now + Timeout).
	Timeout time.Duration
	// BackoffBase is the sleep before the first retry; each further
	// retry doubles it up to BackoffMax, with jitter in [d/2, d]
	// (defaults 2ms and 250ms). The wait is cancelable: a done context
	// aborts it immediately.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed makes the jitter deterministic for tests (default 1).
	Seed uint64
	// FailConn, when non-nil, reports whether the borrowed connection
	// should be killed before attempt `attempt` of request `req`
	// (both 1-based) — the fault-injection hook mirroring
	// mapreduce.Config.FailTask. Killed attempts fail with a transport
	// error and take the retry path.
	FailConn func(req, attempt int) bool
	// PreAttempt, when non-nil, runs before each wire attempt with the
	// raw request text and the 1-based attempt number — the client-side
	// counterpart of ServerConfig.PreHandle. Chaos harnesses use it to
	// inject latency spikes on the request path (a sleep here delays the
	// attempt but still counts against its deadline budget, so a spike
	// longer than the remaining budget surfaces as a timeout, exactly
	// like real network delay). Keep it bounded: it runs on the request
	// path and is not interrupted by cancellation.
	PreAttempt func(req string, attempt int)
}

// ErrPoolClosed is returned for requests issued after Close.
var ErrPoolClosed = errors.New("sockets: pool closed")

// poolConn is one slot of the pool; conn is nil until dialed (or after
// a transport error discards it).
type poolConn struct {
	conn net.Conn
}

// Pool is a fixed-size pool of KV-server connections with per-request
// deadlines and bounded retry with exponential backoff plus jitter on
// dial and transport errors — the production-shaped client the lab's
// single-connection Client grows into. Safe for concurrent use.
//
// Every operation has a context-first core (GetCtx, SetCtx, ...): the
// context bounds the whole request — borrow wait, dial, write, read,
// and retry backoff — and a canceled or expired context surfaces as an
// error wrapping context.Canceled or context.DeadlineExceeded, distinct
// from ErrPoolClosed and from peer/transport failures. The ctx-less
// methods are context.Background() wrappers kept for call sites that
// have no lifetime to attach.
type Pool struct {
	addr string
	cfg  PoolConfig
	free chan *poolConn
	pipe *pipe // the shared pipelined transport; nil on ProtoText

	closed       atomic.Bool
	reqSeen      atomic.Int64
	errSeen      atomic.Int64
	retrySeen    atomic.Int64
	attemptSeen  atomic.Int64
	failInjSeen  atomic.Int64
	canceledSeen atomic.Int64
	overloadSeen atomic.Int64
	reqSeq       atomic.Int64

	rngMu sync.Mutex
	rng   uint64
}

// NewPool connects a pool to a server, dialing one connection eagerly
// (to fail fast on a bad address) and the rest on demand.
func NewPool(addr string, cfg PoolConfig) (*Pool, error) {
	if cfg.Size <= 0 {
		cfg.Size = 4
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = defaultAttemptTimeout
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 2 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 250 * time.Millisecond
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	p := &Pool{addr: addr, cfg: cfg, free: make(chan *poolConn, cfg.Size), rng: cfg.Seed}
	if cfg.Proto == ProtoBinary {
		p.pipe = newPipe(p)
		// Establish the shared connection eagerly to fail fast on a bad
		// address, like the text path's eager first dial.
		if _, _, _, err := p.pipe.ensure(context.Background()); err != nil {
			return nil, err
		}
		return p, nil
	}
	conn, err := dialCtx(context.Background(), addr, cfg.Timeout)
	if err != nil {
		return nil, err
	}
	p.free <- &poolConn{conn: conn}
	for i := 1; i < cfg.Size; i++ {
		p.free <- &poolConn{}
	}
	return p, nil
}

// Stats returns a snapshot of the request/error/retry counters.
func (p *Pool) Stats() Stats {
	return Stats{
		Requests: p.reqSeen.Load(),
		Errors:   p.errSeen.Load(),
		Retries:  p.retrySeen.Load(),
	}
}

// Counters exports the pool's client-side counters as a
// metrics.CounterSet so benchmark drivers (kvbench, clusterbench) can
// print them next to latency tables: requests issued, wire attempts
// (first tries + retries), retries, failed attempts, FailConn fault
// injections, and requests abandoned because the caller's context was
// canceled or its deadline expired.
func (p *Pool) Counters() *metrics.CounterSet {
	cs := &metrics.CounterSet{}
	cs.Add("pool.requests", float64(p.reqSeen.Load()))
	cs.Add("pool.attempts", float64(p.attemptSeen.Load()))
	cs.Add("pool.retries", float64(p.retrySeen.Load()))
	cs.Add("pool.failed-attempts", float64(p.errSeen.Load()))
	cs.Add("pool.failconn-injections", float64(p.failInjSeen.Load()))
	cs.Add("pool.canceled", float64(p.canceledSeen.Load()))
	cs.Add("pool.overloads", float64(p.overloadSeen.Load()))
	return cs
}

// Overloads reports how many attempts the server shed with an overload
// response (each was retried through the backoff ladder like a
// transport error).
func (p *Pool) Overloads() int64 { return p.overloadSeen.Load() }

// Close releases the pooled connections. In-flight requests finish;
// their connections are closed on return.
func (p *Pool) Close() error {
	if p.closed.Swap(true) {
		return nil
	}
	if p.pipe != nil {
		p.pipe.shutdown()
	}
	for {
		select {
		case pc := <-p.free:
			if pc.conn != nil {
				pc.conn.Close()
			}
		default:
			return nil
		}
	}
}

// rt adapts the ctx core to the shared command parsers.
func (p *Pool) rt(ctx context.Context) roundTripper {
	return func(req string) (string, error) { return p.doCtx(ctx, req) }
}

// doCtx runs one request through the borrow/deadline/retry machinery
// under ctx. A context that is already done fails fast — before any
// borrow, dial, or write. Cancellation mid-attempt wakes the blocked
// read; cancellation between attempts skips the remaining backoff and
// retries. The returned error wraps ctx.Err() so callers can
// errors.Is it against context.Canceled / context.DeadlineExceeded.
func (p *Pool) doCtx(ctx context.Context, req string) (string, error) {
	if p.closed.Load() {
		return "", ErrPoolClosed
	}
	if err := ctx.Err(); err != nil {
		p.canceledSeen.Add(1)
		return "", fmt.Errorf("sockets: request aborted before first attempt: %w", err)
	}
	p.reqSeen.Add(1)
	id := int(p.reqSeq.Add(1))
	var lastErr error
	shed := false
	for attempt := 1; attempt <= p.cfg.MaxAttempts; attempt++ {
		if attempt > 1 {
			p.retrySeen.Add(1)
			if err := p.backoff(ctx, backoffStep(attempt, shed)); err != nil {
				p.canceledSeen.Add(1)
				return "", fmt.Errorf("sockets: request canceled in retry backoff after %d attempts: %w", attempt-1, err)
			}
		}
		p.attemptSeen.Add(1)
		var pc *poolConn
		select {
		case pc = <-p.free:
		case <-ctx.Done():
			p.canceledSeen.Add(1)
			return "", fmt.Errorf("sockets: request canceled waiting for a pooled connection: %w", ctx.Err())
		}
		resp, err := p.try(ctx, pc, req, id, attempt)
		if p.closed.Load() {
			if pc.conn != nil {
				pc.conn.Close()
				pc.conn = nil
			}
		}
		p.free <- pc
		if err == nil {
			if resp != textOverload {
				return resp, nil
			}
			// The server shed this attempt at admission. The connection is
			// fine (keep it pooled); the node just needs breathing room, so
			// take the jittered backoff ladder — stiffened, because a shed
			// means the node is saturated, not flaky: re-offering the load
			// on the transport-error schedule is exactly the retry storm
			// admission control exists to damp.
			p.errSeen.Add(1)
			p.overloadSeen.Add(1)
			lastErr = ErrOverload
			shed = true
			if cerr := ctx.Err(); cerr != nil {
				p.canceledSeen.Add(1)
				return "", fmt.Errorf("sockets: request canceled after %d attempts: %w", attempt, cerr)
			}
			continue
		}
		p.errSeen.Add(1)
		lastErr = err
		if cerr := ctx.Err(); cerr != nil {
			p.canceledSeen.Add(1)
			return "", fmt.Errorf("sockets: request canceled after %d attempts: %w", attempt, cerr)
		}
	}
	return "", fmt.Errorf("sockets: request failed after %d attempts: %w", p.cfg.MaxAttempts, lastErr)
}

// defaultAttemptTimeout backs a zero cfg.Timeout. NewPool normalizes
// the config, but attemptTimeout clamps again on its own: a Pool whose
// Timeout reached zero any other way (direct construction in tests,
// a future config path that skips normalization) must never turn a
// missing ctx deadline into an unbounded attempt — that would evade
// the cancellation guarantees the whole stack is built on.
const defaultAttemptTimeout = 2 * time.Second

// attemptTimeout derives one attempt's deadline budget:
// min(cfg.Timeout, time left until the ctx deadline), with cfg.Timeout
// clamped to defaultAttemptTimeout when unset. ctxBounded reports that
// the ctx deadline (not the config) set the budget, so an I/O timeout
// can be attributed to the context.
func (p *Pool) attemptTimeout(ctx context.Context) (d time.Duration, ctxBounded bool) {
	d = p.cfg.Timeout
	if d <= 0 {
		d = defaultAttemptTimeout
	}
	if dl, ok := ctx.Deadline(); ok {
		if rem := time.Until(dl); rem < d {
			d, ctxBounded = rem, true
		}
	}
	return d, ctxBounded
}

// try performs one attempt on one pooled connection, discarding the
// connection on any transport error so the next attempt redials. A
// cancellation while the attempt is blocked in write/read rewinds the
// connection deadline to wake it immediately.
func (p *Pool) try(ctx context.Context, pc *poolConn, req string, id, attempt int) (string, error) {
	// The injected latency runs before the deadline budget is computed,
	// so under a ctx deadline a spike eats the attempt's remaining time
	// the way real network delay would.
	if p.cfg.PreAttempt != nil {
		p.cfg.PreAttempt(req, attempt)
	}
	timeout, ctxBounded := p.attemptTimeout(ctx)
	if timeout <= 0 {
		return "", context.DeadlineExceeded
	}
	// When the ctx deadline (not cfg.Timeout) set this attempt's budget,
	// an I/O timeout IS the ctx deadline expiring — attribute it, since
	// the read can wake a hair before ctx.Err() flips.
	wrap := func(err error) error {
		var nerr net.Error
		if ctxBounded && errors.As(err, &nerr) && nerr.Timeout() {
			return fmt.Errorf("sockets: attempt stopped by ctx deadline: %w", context.DeadlineExceeded)
		}
		return err
	}
	if pc.conn == nil {
		conn, err := dialCtx(ctx, p.addr, timeout)
		if err != nil {
			return "", wrap(err)
		}
		pc.conn = conn
	}
	if p.cfg.FailConn != nil && p.cfg.FailConn(id, attempt) {
		p.failInjSeen.Add(1)
		pc.conn.Close() // the injected mid-flight connection kill
	}
	pc.conn.SetDeadline(time.Now().Add(timeout))
	if done := ctx.Done(); done != nil {
		conn := pc.conn
		watch := make(chan struct{})
		exited := make(chan struct{})
		go func() {
			defer close(exited)
			select {
			case <-done:
				conn.SetDeadline(aLongTimeAgo) // wake the blocked read
			case <-watch:
			}
		}()
		// Join the watchdog before returning: a stray SetDeadline after
		// the connection goes back to the pool would clobber the next
		// request's deadline.
		defer func() { close(watch); <-exited }()
	}
	if err := WriteFrame(pc.conn, []byte(req)); err != nil {
		pc.conn.Close()
		pc.conn = nil
		return "", wrap(err)
	}
	resp, err := ReadFrame(pc.conn)
	if err != nil {
		pc.conn.Close()
		pc.conn = nil
		return "", wrap(err)
	}
	return string(resp), nil
}

// backoff waits out the exponential, jittered delay before a retry
// (attempt >= 2), returning early with ctx.Err() when the caller gives
// up — a canceled request must not sit out the backoff ladder.
// backoffStep maps an attempt number to its rung on the backoff
// ladder. A shed previous attempt jumps three rungs (8× the base wait):
// a saturated node needs the aggregate retry pressure to drop, and the
// quorum paths cancel laggard retries anyway once enough replicas
// answer, so the longer wait costs a successful op nothing.
func backoffStep(attempt int, shed bool) int {
	if shed {
		return attempt + 3
	}
	return attempt
}

func (p *Pool) backoff(ctx context.Context, attempt int) error {
	d := p.cfg.BackoffBase << (attempt - 2)
	if d > p.cfg.BackoffMax || d <= 0 {
		d = p.cfg.BackoffMax
	}
	p.rngMu.Lock()
	p.rng ^= p.rng << 13
	p.rng ^= p.rng >> 7
	p.rng ^= p.rng << 17
	r := p.rng
	p.rngMu.Unlock()
	half := d / 2
	t := time.NewTimer(half + time.Duration(r%uint64(half+1)))
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// binary reports whether this pool speaks the pipelined binary
// protocol; each public operation branches here, so callers are
// protocol-agnostic.
func (p *Pool) binary() bool { return p.cfg.Proto == ProtoBinary }

// Ping checks liveness.
func (p *Pool) Ping() error { return p.PingCtx(context.Background()) }

// PingCtx checks liveness under ctx.
func (p *Pool) PingCtx(ctx context.Context) error {
	if p.binary() {
		return p.binPing(ctx)
	}
	return doPing(p.rt(ctx))
}

// Set stores key = value (keys with whitespace rejected via ErrBadKey;
// on the text protocol, values containing CR/LF rejected via
// ErrBadValue — the binary protocol carries opaque bytes).
func (p *Pool) Set(key, value string) error { return p.SetCtx(context.Background(), key, value) }

// SetCtx stores key = value under ctx.
func (p *Pool) SetCtx(ctx context.Context, key, value string) error {
	if p.binary() {
		return p.binSet(ctx, key, value)
	}
	return doSet(p.rt(ctx), key, value)
}

// Get fetches a value; found is false for missing keys.
func (p *Pool) Get(key string) (value string, found bool, err error) {
	return p.GetCtx(context.Background(), key)
}

// GetCtx fetches a value under ctx; found is false for missing keys.
func (p *Pool) GetCtx(ctx context.Context, key string) (value string, found bool, err error) {
	if p.binary() {
		return p.binGet(ctx, key)
	}
	return doGet(p.rt(ctx), key)
}

// Del removes a key, reporting whether it existed.
func (p *Pool) Del(key string) (bool, error) { return p.DelCtx(context.Background(), key) }

// DelCtx removes a key under ctx, reporting whether it existed.
func (p *Pool) DelCtx(ctx context.Context, key string) (bool, error) {
	if p.binary() {
		return p.binDel(ctx, key)
	}
	return doDel(p.rt(ctx), key)
}

// MDel bulk-deletes keys (chunked under the frame limit), returning how
// many existed.
func (p *Pool) MDel(keys ...string) (int, error) { return p.MDelCtx(context.Background(), keys...) }

// MDelCtx bulk-deletes keys under ctx; a cancellation between chunks
// returns the deletions applied so far alongside the wrapped ctx error.
func (p *Pool) MDelCtx(ctx context.Context, keys ...string) (int, error) {
	for _, k := range keys {
		if err := validateKey(k); err != nil {
			return 0, err
		}
	}
	if p.binary() {
		return p.binMDel(ctx, keys)
	}
	return doMDel(p.rt(ctx), keys)
}

// MGet fetches many keys at once. See MGetCtx.
func (p *Pool) MGet(keys ...string) ([]string, []bool, error) {
	return p.MGetCtx(context.Background(), keys...)
}

// MGetCtx fetches many keys, returning values and found flags parallel
// to keys. On the binary protocol the whole batch rides one MGET PDU
// per chunk — one syscall amortized over the batch, the fan-in path
// cluster hint replay uses; on the text protocol it degrades to
// sequential GETs (stopping at the first transport error).
func (p *Pool) MGetCtx(ctx context.Context, keys ...string) ([]string, []bool, error) {
	for _, k := range keys {
		if err := validateKey(k); err != nil {
			return nil, nil, err
		}
	}
	if p.binary() {
		return p.binMGet(ctx, keys)
	}
	values := make([]string, len(keys))
	found := make([]bool, len(keys))
	for i, k := range keys {
		v, ok, err := doGet(p.rt(ctx), k)
		if err != nil {
			return nil, nil, err
		}
		values[i], found[i] = v, ok
	}
	return values, found, nil
}

// MPut stores many pairs at once. See MPutCtx.
func (p *Pool) MPut(pairs []KV) error { return p.MPutCtx(context.Background(), pairs) }

// MPutCtx stores many pairs. On the binary protocol the batch rides
// one MPUT PDU per chunk — what cluster migration uses to land a moved
// arc's keys without a round trip per key; on the text protocol it
// degrades to sequential SETs (with the text path's value rules).
func (p *Pool) MPutCtx(ctx context.Context, pairs []KV) error {
	for _, kv := range pairs {
		if err := validateKey(kv.Key); err != nil {
			return err
		}
	}
	if p.binary() {
		wkv := make([]wire.KV, len(pairs))
		for i, kv := range pairs {
			wkv[i] = wire.KV{Key: kv.Key, Value: []byte(kv.Value)}
		}
		return p.binMPut(ctx, wkv)
	}
	for _, kv := range pairs {
		if err := doSet(p.rt(ctx), kv.Key, kv.Value); err != nil {
			return err
		}
	}
	return nil
}

// SetVCtx stores key = value only if value's embedded version stamp
// wins the total order against whatever the node already stores,
// returning the SetV* outcome code. This is the write the anti-entropy
// machinery uses everywhere it copies data between replicas: unlike a
// blind SetCtx, a delayed or retried SETV can never regress a replica
// to an older version.
func (p *Pool) SetVCtx(ctx context.Context, key, value string) (uint64, error) {
	if p.binary() {
		return p.binSetV(ctx, key, value)
	}
	return doSetV(p.rt(ctx), key, value)
}

// MSetVCtx is SetVCtx for a batch: it returns one SetV* outcome code
// per pair, in order. On the binary protocol the batch rides one MSETV
// PDU per byte-bounded chunk, and the server shares group-commit fsyncs
// across a chunk; on the text protocol it degrades to sequential SETVs.
// A failure returns the codes of the pairs that completed before it
// alongside the error; retrying the rest is safe, since SETV is
// idempotent.
func (p *Pool) MSetVCtx(ctx context.Context, pairs []KV) ([]uint64, error) {
	for _, kv := range pairs {
		if err := validateKey(kv.Key); err != nil {
			return nil, err
		}
	}
	if p.binary() {
		wkv := make([]wire.KV, len(pairs))
		for i, kv := range pairs {
			wkv[i] = wire.KV{Key: kv.Key, Value: []byte(kv.Value)}
		}
		return p.binMSetV(ctx, wkv)
	}
	codes := make([]uint64, 0, len(pairs))
	for _, kv := range pairs {
		code, err := doSetV(p.rt(ctx), kv.Key, kv.Value)
		if err != nil {
			return codes, err
		}
		codes = append(codes, code)
	}
	return codes, nil
}

// TreeCtx fetches the node's Merkle range hash for each span — the
// descent step of an anti-entropy diff walk.
func (p *Pool) TreeCtx(ctx context.Context, spans []wire.Span) ([]uint64, error) {
	if p.binary() {
		return p.binTree(ctx, spans)
	}
	return doTree(p.rt(ctx), spans)
}

// ScanCtx lists the node's (key, entry hash) pairs for the given Merkle
// bucket spans — the leaf step of an anti-entropy diff walk. Values are
// not transferred; the caller compares hashes and fetches only the keys
// that differ.
func (p *Pool) ScanCtx(ctx context.Context, spans []wire.Span) ([]wire.ScanEntry, error) {
	if p.binary() {
		return p.binScan(ctx, spans)
	}
	return doScan(p.rt(ctx), spans)
}

// Count returns the number of stored keys.
func (p *Pool) Count() (int, error) { return p.CountCtx(context.Background()) }

// CountCtx returns the number of stored keys under ctx.
func (p *Pool) CountCtx(ctx context.Context) (int, error) {
	if p.binary() {
		return p.binCount(ctx)
	}
	return doCount(p.rt(ctx))
}

// Keys returns all stored keys in sorted order.
func (p *Pool) Keys() ([]string, error) { return p.KeysCtx(context.Background()) }

// KeysCtx returns all stored keys in sorted order under ctx.
func (p *Pool) KeysCtx(ctx context.Context) ([]string, error) {
	if p.binary() {
		return p.binKeys(ctx)
	}
	return doKeys(p.rt(ctx))
}
