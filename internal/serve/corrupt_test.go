package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"github.com/cascade-ml/cascade/internal/graph"
	"github.com/cascade-ml/cascade/internal/models"
)

// Fuzz-style corruption tables for the two decoders that eat replication
// payloads. A standby feeds whatever arrives off the wire into these, so the
// contract is absolute: truncated or bit-flipped input produces a typed
// error — never a panic, never a silent partial decode.

func sampleBatchPayloads(t testing.TB) [][]byte {
	t.Helper()
	events := []graph.Event{
		{Src: 1, Dst: 2, Time: 42.5, FeatIdx: -1},
		{Src: 0, Dst: 199, Time: 1e12, FeatIdx: -1},
		{Src: 7, Dst: 9, Time: 1e12 + 1, FeatIdx: -1},
	}
	return [][]byte{
		encodeEventBatch(nil, 0),
		encodeEventBatch(events, 0),
		encodeEventBatch(events, 12345),
	}
}

func TestDecodeEventBatchTruncations(t *testing.T) {
	for pi, p := range sampleBatchPayloads(t) {
		for cut := 0; cut < len(p); cut++ {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("payload %d truncated to %d bytes: panic %v", pi, cut, r)
					}
				}()
				if _, _, err := decodeEventBatch(p[:cut]); err == nil {
					t.Fatalf("payload %d truncated to %d bytes decoded without error", pi, cut)
				}
			}()
		}
	}
}

func TestDecodeEventBatchBitFlips(t *testing.T) {
	// The batch codec has no checksum of its own (the WAL frame carries it),
	// so a flip may legally decode to different events — the contract here
	// is only no-panic and no out-of-bounds length trusting.
	for pi, p := range sampleBatchPayloads(t) {
		for i := 0; i < len(p); i++ {
			for _, mask := range []byte{0x01, 0x80} {
				flip := bytes.Clone(p)
				flip[i] ^= mask
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("payload %d byte %d ^ %#x: panic %v", pi, i, mask, r)
						}
					}()
					_, _, _ = decodeEventBatch(flip)
				}()
			}
		}
	}
}

func sampleSnapshot(t testing.TB) []byte {
	t.Helper()
	// A tiny but real stream checkpoint, so the gob payload exercises the
	// full decode path.
	snap := &serveSnapshot{
		Stream:     &models.StreamCheckpoint{},
		LastTime:   1e7,
		AppliedSeq: 42,
		Ingested:   9,
		LastBid:    3,
	}
	var buf bytes.Buffer
	if err := encodeServeSnapshot(&buf, snap); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestDecodeServeSnapshotTruncations(t *testing.T) {
	p := sampleSnapshot(t)
	for cut := 0; cut < len(p); cut++ {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("snapshot truncated to %d bytes: panic %v", cut, r)
				}
			}()
			_, err := decodeServeSnapshot(bytes.NewReader(p[:cut]))
			if err == nil {
				t.Fatalf("snapshot truncated to %d bytes decoded without error", cut)
			}
		}()
	}
}

// TestDecodeServeSnapshotForgedLength: a 20-byte header declaring the
// largest accepted payload (4 GiB) and carrying none of it must fail as
// corrupt without allocating the declared size first — every snapshot file
// in the WAL directory is decoded at startup.
func TestDecodeServeSnapshotForgedLength(t *testing.T) {
	head := make([]byte, 20)
	copy(head, snapMagic[:])
	binary.LittleEndian.PutUint32(head[8:12], snapFormatVersion)
	binary.LittleEndian.PutUint64(head[12:20], 1<<32)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decodeServeSnapshot(bytes.NewReader(head))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, errSnapCorrupt) {
		t.Fatalf("got %v, want errSnapCorrupt", err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("forged length allocated %d bytes, want < 1 MiB", d)
	}
}

func TestDecodeServeSnapshotBitFlips(t *testing.T) {
	// The snapshot format is CRC-covered end to end, so EVERY single-bit
	// flip must be detected — and as a typed error: errSnapCorrupt for
	// anything the checksum catches, a version error for the version word.
	p := sampleSnapshot(t)
	for i := 0; i < len(p); i++ {
		for _, mask := range []byte{0x01, 0x80} {
			flip := bytes.Clone(p)
			flip[i] ^= mask
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("snapshot byte %d ^ %#x: panic %v", i, mask, r)
					}
				}()
				_, err := decodeServeSnapshot(bytes.NewReader(flip))
				if err == nil {
					t.Fatalf("snapshot with byte %d ^ %#x decoded without error", i, mask)
				}
				if !errors.Is(err, errSnapCorrupt) && !bytes.Contains([]byte(err.Error()), []byte("version")) {
					t.Fatalf("snapshot byte %d ^ %#x: untyped error %v", i, mask, err)
				}
			}()
		}
	}
}
