package aodv

import (
	"bytes"
	"strconv"
	"testing"

	"innercircle/internal/link"
)

// canonicalRREP is b with every bit EncodeRREP cannot set put as
// EncodeRREP would: its last eight bytes zeroed and, where an int is 32
// bits, each node ID's high word the sign extension of its low word, since
// a node ID keeps only the low word there. EncodeRREP can produce b if and
// only if canonicalRREP(b) equals b.
func canonicalRREP(b []byte) []byte {
	want := bytes.Clone(b)
	clear(want[32:])
	if strconv.IntSize == 32 {
		for _, off := range []int{0, 8, 24} {
			ext := byte(0)
			if want[off+4]&0x80 != 0 {
				ext = 0xff
			}
			for i := off; i < off+4; i++ {
				want[i] = ext
			}
		}
	}
	return want
}

// FuzzRREPRoundTrip checks the codec of the value inner-circle voting
// signs for an RREP: every RREP survives encoding and decoding; a 40-byte
// value is accepted exactly when EncodeRREP can produce it, and then
// re-encodes to itself byte for byte; every other length is rejected.
func FuzzRREPRoundTrip(f *testing.F) {
	f.Add(int64(5), int64(9), uint32(12345), uint32(3), int64(7), make([]byte, 40))
	f.Add(int64(-1), int64(1<<40), ^uint32(0), ^uint32(0), int64(-1<<63), bytes.Repeat([]byte{0xff}, 40))
	f.Add(int64(0), int64(0), uint32(0), uint32(1<<31), int64(0), []byte{1, 2, 3})
	f.Add(int64(1), int64(2), uint32(3), uint32(4), int64(5), make([]byte, 41))
	f.Add(int64(1), int64(2), uint32(3), uint32(4), int64(5), append(make([]byte, 39), 1))
	f.Add(int64(1), int64(2), uint32(3), uint32(4), int64(5), append([]byte{0, 0, 0, 1}, make([]byte, 36)...))
	f.Fuzz(func(t *testing.T, orig, dst int64, dstSeq, hops uint32, next int64, b []byte) {
		r := RREP{Orig: link.NodeID(orig), Dst: link.NodeID(dst), DstSeq: dstSeq, HopCount: int(hops), NextHop: link.NodeID(next)}
		if got, err := DecodeRREP(EncodeRREP(r)); err != nil || got != r {
			t.Fatalf("%+v decoded to %+v, %v", r, got, err)
		}

		got, err := DecodeRREP(b)
		if len(b) != 40 {
			if err == nil {
				t.Fatalf("%d-byte value decoded to %+v", len(b), got)
			}
			return
		}
		encodable := bytes.Equal(canonicalRREP(b), b)
		if err != nil {
			if encodable {
				t.Fatalf("value %x, which EncodeRREP produces, rejected: %v", b, err)
			}
			return
		}
		if !encodable {
			t.Fatalf("value %x, which EncodeRREP cannot produce, decoded to %+v", b, got)
		}
		if enc := EncodeRREP(got); !bytes.Equal(enc, b) {
			t.Fatalf("%x decoded to %+v, which encodes to %x", b, got, enc)
		}
	})
}
