package sockets

import (
	"context"
	"fmt"
	"testing"
)

// TestMetrics_CountedBeforeReply: a client that has received a reply
// must already see its request in the server's latency histograms —
// checked exactly after each of 1000 sequential replies, on the text
// loop and on both binary paths (inline GET, per-request goroutine
// MPUT).
func TestMetrics_CountedBeforeReply(t *testing.T) {
	const n = 1000
	check := func(t *testing.T, s *Server, verb string, do func(i int) error) {
		t.Helper()
		base, vbase := s.Latency().Count(), s.VerbLatency(verb).Count()
		for i := 0; i < n; i++ {
			if err := do(i); err != nil {
				t.Fatal(err)
			}
			if got, want := s.Latency().Count(), base+int64(i+1); got != want {
				t.Fatalf("after reply %d the latency histogram counts %d requests, want %d", i+1, got, want)
			}
			if got, want := s.VerbLatency(verb).Count(), vbase+int64(i+1); got != want {
				t.Fatalf("after reply %d the %s histogram counts %d requests, want %d", i+1, verb, got, want)
			}
		}
	}

	t.Run("text", func(t *testing.T) {
		s := startServer(t)
		c, err := Dial(s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		check(t, s, "SET", func(i int) error { return c.Set(fmt.Sprintf("k%d", i), "v") })
	})

	t.Run("binary", func(t *testing.T) {
		s := startServer(t)
		p, err := NewPool(s.Addr(), PoolConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		ctx := context.Background()
		check(t, s, "GET", func(i int) error {
			_, _, err := p.GetCtx(ctx, fmt.Sprintf("k%d", i))
			return err
		})
		check(t, s, "MPUT", func(i int) error {
			return p.MPutCtx(ctx, []KV{{Key: fmt.Sprintf("k%d", i), Value: "v"}})
		})
	})
}
