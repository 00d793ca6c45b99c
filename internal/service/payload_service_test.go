// Payload service tests: kilobyte client bytes round-tripping through
// agreement and back out of the decision, the service-level
// differential against the digest-only path, homogeneous batch
// collection under a mixed proposal stream, submit validation, the
// batch framing codec, and the payload Config bounds.

package service

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"proxcensus/internal/ba"
)

// TestServicePayloadRoundTrip: a burst of kilobyte payload proposals
// resolves with every ticket committed and the proposal's own bytes
// returned from the decided batch — the bytes the instance agreed on,
// not an echo of the submission.
func TestServicePayloadRoundTrip(t *testing.T) {
	const total = 12
	s := quickService(t, func(c *Config) {
		c.Batch = 4
		c.MaxActive = 4
		c.MaxPending = total
	})
	inputs := make([][]byte, total)
	tickets := make([]*Ticket, total)
	for i := range tickets {
		inputs[i] = bytes.Repeat([]byte{byte(i + 1)}, 1024+i)
		tk, err := s.SubmitPayload(inputs[i])
		if err != nil {
			t.Fatalf("submit payload %d: %v", i, err)
		}
		tickets[i] = tk
	}
	for i, tk := range tickets {
		d := tk.Wait()
		if d.Err != nil || !d.Committed {
			t.Fatalf("payload %d: committed=%v err=%v", i, d.Committed, d.Err)
		}
		if !bytes.Equal(d.Payload, inputs[i]) {
			t.Fatalf("payload %d: decided segment %d bytes, want the %d input bytes back",
				i, len(d.Payload), len(inputs[i]))
		}
		if d.Latency <= 0 {
			t.Fatalf("payload %d has non-positive latency %s", i, d.Latency)
		}
	}
	st := s.Stats()
	if st.Decided != total || st.Failed != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestServicePayloadDigestDifferential: on isomorphic proposal streams
// under identical configs and seeds, the payload path and the digest
// path produce the same commitment behavior — every proposal commits
// on both, and the decided payload segment inverts back to the value
// the digest path committed.
func TestServicePayloadDigestDifferential(t *testing.T) {
	const total = 8
	mkService := func() *Service {
		return quickService(t, func(c *Config) {
			c.Batch = 2
			c.MaxActive = 2
			c.MaxPending = total
		})
	}
	sD, sP := mkService(), mkService()

	enc := func(v int) []byte { // injective value → bytes encoding
		b := bytes.Repeat([]byte{0xee}, 1024)
		binary.BigEndian.PutUint64(b, uint64(v))
		return b
	}
	ticketsD := make([]*Ticket, total)
	ticketsP := make([]*Ticket, total)
	for i := 0; i < total; i++ {
		v := 500 + i
		tkD, err := sD.Submit(ba.Value(v))
		if err != nil {
			t.Fatalf("digest submit %d: %v", i, err)
		}
		tkP, err := sP.SubmitPayload(enc(v))
		if err != nil {
			t.Fatalf("payload submit %d: %v", i, err)
		}
		ticketsD[i], ticketsP[i] = tkD, tkP
	}
	for i := 0; i < total; i++ {
		dD, dP := ticketsD[i].Wait(), ticketsP[i].Wait()
		if dD.Committed != dP.Committed {
			t.Fatalf("proposal %d: digest committed=%v, payload committed=%v — paths diverged",
				i, dD.Committed, dP.Committed)
		}
		if !dP.Committed {
			t.Fatalf("proposal %d failed on both paths: %v / %v", i, dD.Err, dP.Err)
		}
		if got := int(binary.BigEndian.Uint64(dP.Payload)); got != 500+i {
			t.Fatalf("proposal %d: decided payload inverts to %d, want %d", i, got, 500+i)
		}
	}
	stD, stP := sD.Stats(), sP.Stats()
	if stD.Decided != stP.Decided || stD.Failed != stP.Failed {
		t.Fatalf("stats diverged: digest %+v vs payload %+v", stD, stP)
	}
}

// TestServiceMixedProposalStream: digest and payload proposals
// interleaved through one worker must never share an instance — the
// collect carry keeps batches homogeneous — and both kinds commit.
func TestServiceMixedProposalStream(t *testing.T) {
	const pairs = 6
	s := quickService(t, func(c *Config) {
		c.Batch = 8
		c.MaxActive = 1
		c.MaxPending = 2 * pairs
	})
	var digestTks, payloadTks []*Ticket
	payloads := make([][]byte, pairs)
	for i := 0; i < pairs; i++ {
		tkD, err := s.Submit(ba.Value(10 + i))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		digestTks = append(digestTks, tkD)
		payloads[i] = bytes.Repeat([]byte{byte(0x80 + i)}, 2048)
		tkP, err := s.SubmitPayload(payloads[i])
		if err != nil {
			t.Fatalf("submit payload %d: %v", i, err)
		}
		payloadTks = append(payloadTks, tkP)
	}
	digestInstances := make(map[int]bool)
	for i, tk := range digestTks {
		d := tk.Wait()
		if d.Err != nil || !d.Committed {
			t.Fatalf("digest proposal %d: committed=%v err=%v", i, d.Committed, d.Err)
		}
		if d.Payload != nil {
			t.Fatalf("digest proposal %d carries a payload segment", i)
		}
		digestInstances[d.Instance] = true
	}
	for i, tk := range payloadTks {
		d := tk.Wait()
		if d.Err != nil || !d.Committed {
			t.Fatalf("payload proposal %d: committed=%v err=%v", i, d.Committed, d.Err)
		}
		if !bytes.Equal(d.Payload, payloads[i]) {
			t.Fatalf("payload proposal %d round trip mismatch", i)
		}
		if digestInstances[d.Instance] {
			t.Fatalf("payload proposal %d shared instance %d with a digest batch", i, d.Instance)
		}
	}
}

// TestSubmitPayloadValidation: empty, oversize, and post-Close payload
// submissions are rejected; the accepted payload is copied so callers
// may reuse their buffer.
func TestSubmitPayloadValidation(t *testing.T) {
	s := quickService(t, func(c *Config) { c.MaxPayload = 128 })
	if _, err := s.SubmitPayload(nil); err == nil {
		t.Error("empty payload admitted")
	}
	if _, err := s.SubmitPayload(make([]byte, 129)); err == nil {
		t.Error("oversize payload admitted")
	}
	buf := bytes.Repeat([]byte{0x31}, 128)
	want := append([]byte(nil), buf...)
	tk, err := s.SubmitPayload(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 0xff // caller reuses its buffer immediately
	}
	if d := tk.Wait(); d.Err != nil || !bytes.Equal(d.Payload, want) {
		t.Fatalf("caller buffer reuse corrupted the proposal: err=%v", d.Err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SubmitPayload([]byte{1}); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after close: %v, want ErrClosed", err)
	}
}

// TestBatchPayloadCodec: the batch framing round-trips, and malformed
// decided bytes split to nil instead of panicking or misparsing.
func TestBatchPayloadCodec(t *testing.T) {
	batch := []proposal{
		{payload: []byte("alpha")},
		{payload: nil},
		{payload: bytes.Repeat([]byte{9}, 300)},
	}
	enc := encodeBatchPayload(nil, batch)
	segs := splitBatchPayload(nil, enc)
	if len(segs) != len(batch) {
		t.Fatalf("split %d segments, want %d", len(segs), len(batch))
	}
	for i := range batch {
		if !bytes.Equal(segs[i], batch[i].payload) {
			t.Errorf("segment %d mismatch", i)
		}
	}
	for _, bad := range [][]byte{
		{1, 2, 3},                                 // shorter than one length prefix
		append([]byte(nil), enc[:len(enc)-1]...),  // truncated final segment
		binary.BigEndian.AppendUint64(nil, 1<<40), // length overruns
	} {
		if got := splitBatchPayload(nil, bad); got != nil {
			t.Errorf("malformed batch bytes split to %d segments, want nil", len(got))
		}
	}
	if segs := splitBatchPayload(nil, nil); len(segs) != 0 {
		t.Errorf("empty batch split to %d segments", len(segs))
	}
}

// TestConfigValidatePayload: the payload knobs get pointed errors.
func TestConfigValidatePayload(t *testing.T) {
	base := func() Config { return Config{N: 4, T: 1}.withDefaults() }
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"negative max-payload", func(c *Config) { c.MaxPayload = -1 }, "max-payload"},
		{"line-protocol ceiling", func(c *Config) { c.MaxPayload = MaxAPIPayload + 1 }, "line-protocol"},
		{"wire cap", func(c *Config) { c.Batch = 64; c.MaxPayload = MaxAPIPayload }, "wire cap"},
		// 2^50 x (16376+8) = 2^64, which a multiplied check wraps to 0.
		{"wire cap overflow", func(c *Config) { c.Batch = 1 << 50; c.MaxPayload = 16376 }, "wire cap"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mutate(&cfg)
			err := cfg.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want error mentioning %q", err, tc.want)
			}
		})
	}
	if base().MaxPayload != DefaultMaxPayload {
		t.Fatalf("default max-payload = %d, want %d", base().MaxPayload, DefaultMaxPayload)
	}
	if fmt.Sprintf("%d", MaxAPIPayload) == "" || DefaultMaxPayload > MaxAPIPayload {
		t.Fatal("default max-payload exceeds the line-protocol ceiling")
	}
}
