package wal

import (
	"bytes"
	"testing"
)

// FuzzDecodeFrame: any byte string either fails to decode or is a frame
// that EncodeFrame reproduces byte for byte — never a panic. A standby feeds
// every replicated frame off the socket into DecodeFrame.
func FuzzDecodeFrame(f *testing.F) {
	f.Add(EncodeFrame(7, []byte("hello, wal")))
	f.Add(EncodeFrame(1, nil))
	f.Add(EncodeFrame(1<<40, bytes.Repeat([]byte{0xab}, 300)))
	f.Add([]byte{})
	f.Add(make([]byte, frameHeaderSize))
	f.Fuzz(func(t *testing.T, b []byte) {
		seq, payload, err := DecodeFrame(b)
		if err != nil {
			return
		}
		if re := EncodeFrame(seq, payload); !bytes.Equal(re, b) {
			t.Fatalf("decoded (%d, %d-byte payload) re-encodes to %x, input %x", seq, len(payload), re, b)
		}
	})
}
