package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

func TestHelloRoundTrip(t *testing.T) {
	for _, tc := range []struct{ id, resume int }{
		{0, 0}, {3, 0}, {7, 12}, {1 << 20, 1 << 29},
	} {
		id, resume, version, err := DecodeHello(EncodeHello(tc.id, tc.resume))
		if err != nil {
			t.Fatalf("hello(%d,%d): %v", tc.id, tc.resume, err)
		}
		if id != tc.id || resume != tc.resume || version != VersionMux {
			t.Errorf("hello(%d,%d) decoded to (%d,%d) v%d", tc.id, tc.resume, id, resume, version)
		}
	}
}

func TestHelloRejectsMalformed(t *testing.T) {
	if _, _, _, err := DecodeHello([]byte{1, 2, 3}); !errors.Is(err, ErrBadFrame) {
		t.Errorf("short hello: err = %v, want ErrBadFrame", err)
	}
	neg := EncodeHello(0, 0)
	negResume := int64(-5)
	binary.BigEndian.PutUint64(neg[8:16], uint64(negResume))
	if _, _, _, err := DecodeHello(neg); !errors.Is(err, ErrBadFrame) {
		t.Errorf("negative resume: err = %v, want ErrBadFrame", err)
	}
	if _, _, _, err := DecodeHello(neg[:16]); !errors.Is(err, ErrBadFrame) {
		t.Errorf("negative resume in a v1 hello: err = %v, want ErrBadFrame", err)
	}
}

func TestBatchRoundTrip(t *testing.T) {
	cases := [][]BatchMsg{
		nil,
		{{Addr: -1, Payload: []byte{0xde, 0xad}}},
		{{Addr: 0, Payload: nil}, {Addr: 3, Payload: []byte{1}}, {Addr: -1, Payload: bytes.Repeat([]byte{7}, 300)}},
	}
	for i, msgs := range cases {
		frame, err := AppendEncodeTaggedBatch(nil, 10*i, i+1, msgs)
		if err != nil {
			t.Fatalf("case %d: encode: %v", i, err)
		}
		inst, round, got, err := DecodeTaggedBatch(frame)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if inst != 10*i || round != i+1 {
			t.Errorf("case %d: instance %d round %d, want %d and %d", i, inst, round, 10*i, i+1)
		}
		if len(got) != len(msgs) {
			t.Fatalf("case %d: %d messages, want %d", i, len(got), len(msgs))
		}
		for j := range msgs {
			if got[j].Addr != msgs[j].Addr || !bytes.Equal(got[j].Payload, msgs[j].Payload) {
				t.Errorf("case %d msg %d: %v, want %v", i, j, got[j], msgs[j])
			}
		}
	}
}

func TestBatchRejectsMalformed(t *testing.T) {
	good, err := AppendEncodeTaggedBatch(nil, 5, 2, []BatchMsg{{Addr: 1, Payload: []byte{9, 9}}})
	if err != nil {
		t.Fatal(err)
	}
	bad := map[string][]byte{
		"short header":   good[:20],
		"trailing bytes": append(append([]byte(nil), good...), 0),
		"truncated":      good[:len(good)-1],
	}
	absurd := append([]byte(nil), good...)
	binary.BigEndian.PutUint64(absurd[16:24], 1<<40)
	bad["absurd count"] = absurd
	negRound := append([]byte(nil), good...)
	minusOne := int64(-1)
	binary.BigEndian.PutUint64(negRound[8:16], uint64(minusOne))
	bad["negative round"] = negRound
	// Back-references the encoder never writes: each would decode, and
	// re-encode to other bytes, if the core let it through.
	blob := []byte{9, 9}
	bad["reference before any literal"] = handBatch(ref(0), lit(1, blob))
	bad["reference to an empty literal"] = handBatch(lit(0, nil), ref(1))
	bad["reference past the previous literal"] = handBatch(lit(0, blob), lit(1, []byte{8}), handEntry{2, -2, nil})
	bad["length far below -1"] = handBatch(lit(0, blob), handEntry{1, math.MinInt64, nil})
	bad["literal repeating the previous literal"] = handBatch(lit(0, blob), lit(1, []byte{9, 9}))
	bad["literal repeating a referenced literal"] = handBatch(lit(0, blob), ref(1), lit(2, []byte{9, 9}))

	for name, frame := range bad { //lint:ordered assertions are independent per case
		if _, _, _, _, err := DecodeTaggedBatchCapped(frame, -1); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: err = %v, want ErrBadFrame", name, err)
		}
	}
}

// TestAppendEncodeBatchGrowsOnce: a buffer too small for the frame
// grows to the frame's size in one allocation — the hub's
// per-instance out-frame starts nil, and climbing append's ladder to a
// 263 KiB delivery frame cost five times its size — keeps what dst
// already held, and a buffer that fits is not reallocated at all.
func TestAppendEncodeBatchGrowsOnce(t *testing.T) {
	msgs := make([]BatchMsg, 16)
	for i := range msgs {
		msgs[i] = BatchMsg{Addr: i, Payload: bytes.Repeat([]byte{byte(i)}, 16<<10)}
	}
	prefix := []byte{0xAA, 0xBB, 0xCC}
	var frame []byte
	allocs := testing.AllocsPerRun(10, func() {
		var err error
		if frame, err = AppendEncodeTaggedBatch(prefix[:3:3], 9, 4, msgs); err != nil {
			t.Fatal(err)
		}
	})
	// One allocation; a -race build also materializes slices.Grow's
	// temporary. Climbing the ladder from 3 bytes takes dozens.
	if allocs > 2 {
		t.Errorf("encode into a short buffer allocates %.0f times, want 1", allocs)
	}
	if cap(frame) > len(frame)+len(frame)/16 {
		t.Errorf("grew to cap %d for a %d-byte frame", cap(frame), len(frame))
	}
	if !bytes.Equal(frame[:3], prefix) {
		t.Errorf("prefix clobbered: %x", frame[:3])
	}
	inst, round, got, err := DecodeTaggedBatch(frame[3:])
	if err != nil || inst != 9 || round != 4 || len(got) != len(msgs) {
		t.Fatalf("instance %d, round %d, %d msgs, err %v", inst, round, len(got), err)
	}
	for i := range got {
		if got[i].Addr != msgs[i].Addr || !bytes.Equal(got[i].Payload, msgs[i].Payload) {
			t.Fatalf("entry %d differs after the grow", i)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if _, err := AppendEncodeTaggedBatch(frame[:0], 9, 4, msgs); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("encode into a fitting buffer allocates %.0f times, want 0", allocs)
	}
}

func TestEncodeBatchRejectsOversize(t *testing.T) {
	if _, err := AppendEncodeTaggedBatch(nil, 0, -1, nil); !errors.Is(err, ErrBadFrame) {
		t.Errorf("negative round: err = %v, want ErrBadFrame", err)
	}
	huge := []BatchMsg{{Addr: 0, Payload: make([]byte, MaxFrame)}}
	if _, err := AppendEncodeTaggedBatch(nil, 0, 1, huge); !errors.Is(err, ErrBadFrame) {
		t.Errorf("oversize batch: err = %v, want ErrBadFrame", err)
	}
}

func TestDecodeBatchCapped(t *testing.T) {
	msgs := make([]BatchMsg, 10)
	for i := range msgs {
		msgs[i] = BatchMsg{Addr: i, Payload: []byte{byte(i)}}
	}
	frame, err := AppendEncodeTaggedBatch(nil, 8, 3, msgs)
	if err != nil {
		t.Fatal(err)
	}

	inst, round, got, dropped, err := DecodeTaggedBatchCapped(frame, 4)
	if err != nil {
		t.Fatal(err)
	}
	if inst != 8 || round != 3 || len(got) != 4 || dropped != 6 {
		t.Fatalf("instance=%d round=%d kept=%d dropped=%d, want 8/3/4/6", inst, round, len(got), dropped)
	}
	for i := range got {
		if got[i].Addr != i || !bytes.Equal(got[i].Payload, []byte{byte(i)}) {
			t.Errorf("msg %d: %v", i, got[i])
		}
	}

	// A negative cap disables truncation.
	_, _, got, dropped, err = DecodeTaggedBatchCapped(frame, -1)
	if err != nil || len(got) != 10 || dropped != 0 {
		t.Fatalf("uncapped: kept=%d dropped=%d err=%v", len(got), dropped, err)
	}

	// An exact-fit cap keeps everything and the trailing-bytes check
	// still applies.
	_, _, got, dropped, err = DecodeTaggedBatchCapped(frame, 10)
	if err != nil || len(got) != 10 || dropped != 0 {
		t.Fatalf("exact cap: kept=%d dropped=%d err=%v", len(got), dropped, err)
	}
	if _, _, _, _, err := DecodeTaggedBatchCapped(append(append([]byte(nil), frame...), 0), 10); !errors.Is(err, ErrBadFrame) {
		t.Errorf("trailing bytes with exact cap: err = %v, want ErrBadFrame", err)
	}

	// A truncated entry inside the kept prefix still errors.
	if _, _, _, _, err := DecodeTaggedBatchCapped(frame[:28], 4); !errors.Is(err, ErrBadFrame) {
		t.Errorf("truncated entry: err = %v, want ErrBadFrame", err)
	}
}

func TestDecodeBatchCappedZero(t *testing.T) {
	frame, err := AppendEncodeTaggedBatch(nil, 0, 1, []BatchMsg{{Addr: 0, Payload: []byte{1}}})
	if err != nil {
		t.Fatal(err)
	}
	// Cap 0 keeps nothing and reports the whole batch as dropped.
	_, _, got, dropped, err := DecodeTaggedBatchCapped(frame, 0)
	if err != nil || len(got) != 0 || dropped != 1 {
		t.Fatalf("cap 0: kept=%d dropped=%d err=%v", len(got), dropped, err)
	}
}
