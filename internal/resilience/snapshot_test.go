package resilience

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/cascade-ml/cascade/internal/models"
	"github.com/cascade-ml/cascade/internal/nn"
	"github.com/cascade-ml/cascade/internal/resilience/faultinject"
	"github.com/cascade-ml/cascade/internal/train"
)

// testState builds a small but fully-populated checkpoint payload.
func testState() *train.CheckpointState {
	return &train.CheckpointState{
		Epoch:    2,
		Batch:    7,
		RNGDraws: 12345,
		Weights:  []byte{1, 2, 3, 4, 5},
		Optimizer: &nn.AdamCheckpoint{
			Step: 42, LR: 1e-3,
			M: [][]float32{{0.1, 0.2}}, V: [][]float32{{0.3, 0.4}},
		},
		Stream:    &models.StreamCheckpoint{Model: "TGN", RNG: 99},
		SchedName: "Cascade",
		Sched:     []byte{9, 8, 7},
		LossSum:   3.5,
		EventSum:  420,
		OccSum:    1.25,
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	c := testState()
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, c); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, c) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, c)
	}
}

// encodeToBytes is a test helper producing one well-formed snapshot blob.
func encodeToBytes(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, testState()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestDecodeRejectsBadMagic(t *testing.T) {
	blob := encodeToBytes(t)
	blob[0] = 'X'
	if _, err := DecodeSnapshot(bytes.NewReader(blob)); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("got %v, want ErrBadMagic", err)
	}
}

func TestDecodeRejectsVersionMismatch(t *testing.T) {
	blob := encodeToBytes(t)
	blob[8] = byte(FormatVersion + 1) // version field follows the 8-byte magic
	if _, err := DecodeSnapshot(bytes.NewReader(blob)); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("got %v, want ErrVersionMismatch", err)
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	blob := encodeToBytes(t)
	// Every strict prefix must fail as truncated (the magic/version checks
	// win for very short prefixes that still parse those fields).
	for _, cut := range []int{0, 4, 8, 15, len(blob) / 2, len(blob) - 1} {
		_, err := DecodeSnapshot(bytes.NewReader(blob[:cut]))
		if err == nil {
			t.Fatalf("prefix of %d bytes decoded", cut)
		}
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("prefix of %d bytes: got %v, want ErrTruncated", cut, err)
		}
	}
}

// TestDecodeForgedLengthAllocatesLittle: a 20-byte header declaring the
// largest accepted payload (4 GiB) and carrying none of it must fail as
// truncated without allocating the declared size first.
func TestDecodeForgedLengthAllocatesLittle(t *testing.T) {
	blob := make([]byte, 20)
	copy(blob, snapshotMagic[:])
	binary.LittleEndian.PutUint32(blob[8:12], FormatVersion)
	binary.LittleEndian.PutUint64(blob[12:20], maxPayload)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeSnapshot(bytes.NewReader(blob))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("got %v, want ErrTruncated", err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("forged length allocated %d bytes, want < 1 MiB", d)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	blob := encodeToBytes(t)
	blob[25] ^= 0xff // inside the gob payload
	if _, err := DecodeSnapshot(bytes.NewReader(blob)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
}

func TestWriteReadSnapshotFile(t *testing.T) {
	dir := t.TempDir()
	path, err := WriteSnapshotFile(dir, 3, testState(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "ckpt-0000000003.ckpt" {
		t.Fatalf("unexpected name %s", path)
	}
	got, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, testState()) {
		t.Fatal("file round trip mismatch")
	}
	latest, err := LatestCheckpoint(dir)
	if err != nil || latest != path {
		t.Fatalf("latest = %q, %v; want %q", latest, err, path)
	}
}

func TestLatestCheckpointEmptyAndMissing(t *testing.T) {
	if p, err := LatestCheckpoint(t.TempDir()); err != nil || p != "" {
		t.Fatalf("empty dir: %q, %v", p, err)
	}
	if p, err := LatestCheckpoint(filepath.Join(t.TempDir(), "nope")); err != nil || p != "" {
		t.Fatalf("missing dir: %q, %v", p, err)
	}
}

func TestPruneCheckpoints(t *testing.T) {
	dir := t.TempDir()
	for seq := 0; seq < 5; seq++ {
		if _, err := WriteSnapshotFile(dir, seq, testState(), nil); err != nil {
			t.Fatal(err)
		}
	}
	// A foreign file must survive pruning untouched.
	foreign := filepath.Join(dir, "notes.txt")
	os.WriteFile(foreign, []byte("keep me"), 0o644)
	if err := PruneCheckpoints(dir, 2); err != nil {
		t.Fatal(err)
	}
	names, err := listCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "ckpt-0000000003.ckpt" || names[1] != "ckpt-0000000004.ckpt" {
		t.Fatalf("kept %v", names)
	}
	if _, err := os.Stat(foreign); err != nil {
		t.Fatalf("foreign file removed: %v", err)
	}
}

// TestInjectedWriteFailuresLeaveNoPartialFile is the acceptance criterion for
// crash-safe writes: whichever stage fails, the target path either holds the
// previous intact checkpoint or nothing, and no temp litter remains.
func TestInjectedWriteFailuresLeaveNoPartialFile(t *testing.T) {
	for _, point := range []string{
		faultinject.PointCkptWrite, faultinject.PointCkptSync, faultinject.PointCkptRename,
	} {
		t.Run(strings.ReplaceAll(point, "/", "_"), func(t *testing.T) {
			dir := t.TempDir()
			// Seed a previous checkpoint that must survive the failed write.
			prevPath, err := WriteSnapshotFile(dir, 0, testState(), nil)
			if err != nil {
				t.Fatal(err)
			}
			inj := faultinject.New()
			inj.Arm(point)
			if _, err := WriteSnapshotFile(dir, 1, testState(), inj); !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("got %v, want injected failure", err)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if e.Name() != filepath.Base(prevPath) {
					t.Fatalf("leftover file %s after failed write", e.Name())
				}
			}
			if _, err := ReadSnapshotFile(prevPath); err != nil {
				t.Fatalf("previous checkpoint damaged: %v", err)
			}
		})
	}
}
