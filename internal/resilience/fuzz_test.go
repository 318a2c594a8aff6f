package resilience

import (
	"bytes"
	"testing"
)

// FuzzDecodeSnapshot: any checkpoint file content decodes or fails with an
// error — never a panic, and never an allocation sized by a forged length
// field (TestDecodeForgedLengthAllocatesLittle pins that case).
func FuzzDecodeSnapshot(f *testing.F) {
	blob := encodeToBytes(f)
	f.Add(blob)
	f.Add(blob[:20])
	f.Add(blob[:len(blob)-1])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		_, _ = DecodeSnapshot(bytes.NewReader(b))
	})
}
