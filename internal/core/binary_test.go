package core

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"slices"
	"testing"
)

// hostileStep encodes a NOBTRC01 header for v=4 plus one step record
// declaring the given message and pair counts, and no column bytes.
func hostileStep(messages int64, pairs uint64) []byte {
	b := []byte(traceBinaryMagic)
	b = binary.LittleEndian.AppendUint32(b, 4)
	b = binary.LittleEndian.AppendUint32(b, 2)
	b = append(b, binTagStep)
	b = binary.LittleEndian.AppendUint32(b, 0)
	b = binary.LittleEndian.AppendUint64(b, uint64(messages))
	for j := 0; j <= 2; j++ {
		b = binary.LittleEndian.AppendUint64(b, 0)
	}
	return binary.LittleEndian.AppendUint64(b, pairs)
}

// TestBinaryReaderBoundsHostilePairCount: a few dozen bytes declaring
// 2^40 pairs — or a negative message count, which would let any pair
// count through — are rejected without allocating for the declared
// count: column reads grow only as bytes arrive.
func TestBinaryReaderBoundsHostilePairCount(t *testing.T) {
	cases := []struct {
		name string
		raw  []byte
	}{
		{"2^40 pairs", hostileStep(1<<40, 1<<40)},
		{"negative messages", hostileStep(-1, 1<<40)},
		{"int64-max pairs", hostileStep(1<<63-1, 1<<63-1)},
	}
	for _, tc := range cases {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		br, err := NewTraceBinaryReader(bytes.NewReader(tc.raw))
		if err != nil {
			t.Fatalf("%s: header rejected: %v", tc.name, err)
		}
		if _, err := br.Next(); err == nil {
			t.Errorf("%s: %d-byte hostile step decoded without error", tc.name, len(tc.raw))
		}
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
			t.Errorf("%s: decoding %d bytes allocated %d bytes, want < 1 MiB", tc.name, len(tc.raw), d)
		}
	}
}

// TestBinaryRoundTripMultiChunkColumns: columns spanning several read
// chunks decode to exactly the pairs written.
func TestBinaryRoundTripMultiChunkColumns(t *testing.T) {
	const v, fanout = 1 << 12, 9 // 36,864 pairs: three read chunks per column
	tr, _, err := collect(v, func(vp *VP[int]) {
		for k := 1; k <= fanout; k++ {
			vp.Send((vp.ID()+k)%v, k)
		}
		vp.Sync(0)
	}, Options{RecordMessages: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.replay(NewTraceBinaryWriter(&buf)); err != nil {
		t.Fatal(err)
	}
	br, err := NewTraceBinaryReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := br.Next()
	if err != nil {
		t.Fatal(err)
	}
	want := tr.Steps[0].Pairs.Pairs()
	if len(want) != fanout*v || !slices.Equal(rec.Pairs.Pairs(), want) {
		t.Fatalf("decoded %d pairs, want the %d written", rec.Pairs.Len(), len(want))
	}
}
