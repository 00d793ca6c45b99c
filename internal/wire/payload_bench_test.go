// Payload codec benchmarks: the blob twin of BenchmarkFrame. "copy" is
// the default transport path (DecodeBatchCapped + per-message Decode,
// one blob copy per payload), "zero" the aliasing path buffer-owning
// callers use (DecodeBatchAliasCapped + DecodeAlias, no byte copying —
// the only steady-state allocation left is the interface boxing of the
// decoded struct). scripts/bench_guard.sh enforces zero ≤ copy/2 ns/op
// at size=4096 and ratchets both paths' allocs/op.

package wire

import (
	"bytes"
	"fmt"
	"testing"

	"proxcensus/internal/ba"
)

// benchPayloadFrame builds one round frame of n parties broadcasting
// ℓ-byte payload echoes, the dissemination round of the multivalued
// payload protocol.
func benchPayloadFrame(b *testing.B, n, size int) []byte {
	b.Helper()
	msgs := make([]BatchMsg, 0, n)
	for i := 0; i < n; i++ {
		data := bytes.Repeat([]byte{byte(i)}, size)
		raw, err := Encode(ba.TCPayloadEcho{Data: data, Valid: true})
		if err != nil {
			b.Fatal(err)
		}
		msgs = append(msgs, BatchMsg{Addr: i, Payload: raw})
	}
	frame, err := AppendEncodeBatch(nil, 2, msgs)
	if err != nil {
		b.Fatal(err)
	}
	return frame
}

func BenchmarkFramePayload(b *testing.B) {
	const n = 16
	for _, size := range []int{1024, 4096} {
		frame := benchPayloadFrame(b, n, size)

		b.Run(fmt.Sprintf("copy/size=%d", size), func(b *testing.B) {
			b.SetBytes(int64(len(frame)))
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

		b.Run(fmt.Sprintf("zero/size=%d", size), func(b *testing.B) {
			scratch := make([]BatchMsg, 0, n)
			b.SetBytes(int64(len(frame)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, msgs, _, err := DecodeBatchAliasCapped(frame, -1, scratch[:0])
				if err != nil {
					b.Fatal(err)
				}
				for _, m := range msgs {
					if _, err := DecodeAlias(m.Payload); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
