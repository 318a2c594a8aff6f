package serve

import (
	"bytes"
	"testing"
)

// FuzzDecodeEventBatch: any WAL record payload either fails to decode or
// re-encodes byte for byte through encodeEventBatch — never a panic.
func FuzzDecodeEventBatch(f *testing.F) {
	for _, p := range sampleBatchPayloads(f) {
		f.Add(p)
	}
	f.Add([]byte{})
	f.Add([]byte{eventBatchVersionBid, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, p []byte) {
		events, bid, err := decodeEventBatch(p)
		if err != nil {
			return
		}
		if re := encodeEventBatch(events, bid); !bytes.Equal(re, p) {
			t.Fatalf("decoded (%d events, bid %d) re-encodes to %x, input %x", len(events), bid, re, p)
		}
	})
}
