package cluster

import (
	"strconv"
	"strings"
	"time"
)

// Hinted handoffs are stored wrapped with their creation time:
// "<unixNanos> h <encoded value>". The "h" marker keeps a raw hint
// from ever being mistaken for a versioned value — decode() rejects it
// loudly — and the timestamp is what the TTL sweep ages against.
// Without a TTL, a permanently dead destination grows the hint~
// keyspace forever: every write that misses it parks another hint that
// nothing will ever consume.
func hintEncode(raw string) string {
	return strconv.FormatInt(time.Now().UnixNano(), 10) + " h " + raw
}

// hintParse splits a stored hint back into its birth time and payload.
func hintParse(stored string) (born time.Time, raw string, ok bool) {
	parts := strings.SplitN(stored, " ", 3)
	if len(parts) != 3 || parts[1] != "h" {
		return time.Time{}, "", false
	}
	nanos, err := strconv.ParseInt(parts[0], 10, 64)
	if err != nil {
		return time.Time{}, "", false
	}
	return time.Unix(0, nanos), parts[2], true
}

// hintExpired reports whether a hint born at the given time has
// outlived the configured TTL (negative TTL = never).
func (c *Cluster) hintExpired(born time.Time) bool {
	return c.cfg.HintTTL > 0 && time.Since(born) >= c.cfg.HintTTL
}

// HintsExpired reports how many parked hints the TTL sweep (or an
// expiry check during replay) has dropped.
func (c *Cluster) HintsExpired() int64 { return c.hintsExpired.Load() }

// sweepExpiredHints walks every live node's parked hints and deletes
// the ones older than HintTTL, whatever their destination — including
// hints for nodes that are down or long dead, which the replay path
// (it only runs when a destination comes back) would never visit.
// Dropping an expired hint abandons that hint's contribution to a past
// sloppy quorum; the TTL is the explicit bound on how long the cluster
// keeps paying memory for that promise. With hints disabled there is
// nothing parked to sweep.
func (c *Cluster) sweepExpiredHints() {
	if c.cfg.HintTTL <= 0 || c.cfg.DisableHints {
		return
	}
	ctx := c.ctx
	c.topoMu.RLock()
	holders := make([]*node, 0, len(c.order))
	for _, name := range c.order {
		holders = append(holders, c.nodes[name])
	}
	c.topoMu.RUnlock()

	expired := 0
	for _, holder := range holders {
		if ctx.Err() != nil {
			break
		}
		if holder.down.Load() || holder.killed.Load() {
			continue
		}
		keys, err := holder.client().KeysCtx(ctx)
		if err != nil {
			continue
		}
		hintKeys := keys[:0]
		for _, hk := range keys {
			if strings.HasPrefix(hk, hintMark) {
				hintKeys = append(hintKeys, hk)
			}
		}
		if len(hintKeys) == 0 {
			continue
		}
		vals, found, err := holder.client().MGetCtx(ctx, hintKeys...)
		if err != nil {
			continue
		}
		var dead []string
		for i, hk := range hintKeys {
			if !found[i] {
				continue
			}
			born, _, ok := hintParse(vals[i])
			if !ok {
				// Unparseable hint: it can never replay (applyHint would
				// reject it too), so age it out with the rest.
				dead = append(dead, hk)
				continue
			}
			if c.hintExpired(born) {
				dead = append(dead, hk)
			}
		}
		if len(dead) == 0 {
			continue
		}
		if _, err := holder.client().MDelCtx(ctx, dead...); err == nil {
			expired += len(dead)
		}
	}
	if expired > 0 {
		c.hintsExpired.Add(int64(expired))
	}
}
