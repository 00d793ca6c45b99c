package wire

import (
	"fmt"
	"testing"

	"proxcensus/internal/proxcensus"
)

// benchFrame builds one hub→node round frame carrying n signed-vote
// payloads, the shape a steady-state ingress round decodes.
func benchFrame(b *testing.B, n int) []byte {
	b.Helper()
	msgs := make([]BatchMsg, 0, n)
	for i := 0; i < n; i++ {
		raw, err := Encode(proxcensus.LinearVote{V: i % 2, Share: share(i, byte(i))})
		if err != nil {
			b.Fatal(err)
		}
		msgs = append(msgs, BatchMsg{Addr: i, Payload: raw})
	}
	frame, err := AppendEncodeBatch(nil, 4, msgs)
	if err != nil {
		b.Fatal(err)
	}
	return frame
}

// BenchmarkFrame measures the full frame→payload decode path at
// ingress fan-ins of n∈{16,64,256}: "copy" is the pre-existing
// allocating path (DecodeBatchCapped + per-message Decode), "zero" the
// pooled path (DecodeBatchAliasCapped into reused scratch + interning
// Decoder). scripts/bench_guard.sh enforces zero ≤ copy/2 ns/op and
// 0 allocs/op on the zero path.
func BenchmarkFrame(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		frame := benchFrame(b, n)

		b.Run(fmt.Sprintf("copy/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, msgs, _, err := DecodeBatchCapped(frame, -1)
				if err != nil {
					b.Fatal(err)
				}
				for _, m := range msgs {
					if _, err := Decode(m.Payload); err != nil {
						b.Fatal(err)
					}
				}
			}
		})

		b.Run(fmt.Sprintf("zero/n=%d", n), func(b *testing.B) {
			dec := NewDecoder()
			scratch := make([]BatchMsg, 0, n)
			// Warm the intern cache: steady state re-sees the round's
			// byte-identical payloads.
			_, warm, _, err := DecodeBatchAliasCapped(frame, -1, scratch)
			if err != nil {
				b.Fatal(err)
			}
			for _, m := range warm {
				if _, err := dec.Decode(m.Payload); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, msgs, _, err := DecodeBatchAliasCapped(frame, -1, scratch[:0])
				if err != nil {
					b.Fatal(err)
				}
				for _, m := range msgs {
					if _, err := dec.Decode(m.Payload); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
