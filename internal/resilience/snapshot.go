// Package resilience makes Cascade training survivable: versioned,
// checksummed full-state checkpoints written crash-safely on a cadence, a
// Manager that rolls training back to the last good checkpoint (with
// learning-rate backoff) when the trainer's numerical-health monitor trips,
// and resume-from-disk so a killed run continues bitwise-identically.
//
// The stakes are specific to temporal GNNs: node memories are built strictly
// sequentially over the event stream and the ABS profiles batch sizes across
// whole epochs, so a crash mid-epoch loses state that cannot be recomputed
// without replaying the stream from the start (PAPER.md §4–5).
package resilience

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"github.com/cascade-ml/cascade/internal/resilience/faultinject"
	"github.com/cascade-ml/cascade/internal/train"
)

// Checkpoint-file format: magic, format version, payload length, gob-encoded
// train.CheckpointState, then a CRC32 (IEEE) over everything before it
// (magic through payload). The CRC makes torn or bit-rotted files detectable;
// the explicit length makes truncation distinguishable from corruption.
var snapshotMagic = [8]byte{'C', 'A', 'S', 'C', 'C', 'K', 'P', '2'}

// FormatVersion is the current checkpoint-file format version.
const FormatVersion uint32 = 1

// maxPayload bounds the declared payload length (a corrupted length field
// must not drive a multi-gigabyte allocation).
const maxPayload = 1 << 32

// Sentinel errors for the distinct ways a checkpoint file can be bad; match
// with errors.Is.
var (
	ErrBadMagic        = errors.New("resilience: not a checkpoint file (bad magic)")
	ErrVersionMismatch = errors.New("resilience: checkpoint format version mismatch")
	ErrTruncated       = errors.New("resilience: checkpoint file truncated")
	ErrCorrupt         = errors.New("resilience: checkpoint file corrupt (checksum mismatch)")
)

// EncodeSnapshot writes one checkpoint in the file format to w.
func EncodeSnapshot(w io.Writer, c *train.CheckpointState) error {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(c); err != nil {
		return fmt.Errorf("resilience: encoding checkpoint state: %w", err)
	}
	var buf bytes.Buffer
	buf.Write(snapshotMagic[:])
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:4], FormatVersion)
	binary.LittleEndian.PutUint64(hdr[4:12], uint64(payload.Len()))
	buf.Write(hdr[:])
	buf.Write(payload.Bytes())
	sum := crc32.ChecksumIEEE(buf.Bytes())
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], sum)
	buf.Write(tail[:])
	_, err := w.Write(buf.Bytes())
	return err
}

// DecodeSnapshot reads one checkpoint from r, verifying magic, version and
// checksum. Failures map onto the sentinel errors above.
func DecodeSnapshot(r io.Reader) (*train.CheckpointState, error) {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: reading magic: %v", ErrTruncated, err)
	}
	if magic != snapshotMagic {
		return nil, fmt.Errorf("%w: got %q", ErrBadMagic, magic[:])
	}
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: reading header: %v", ErrTruncated, err)
	}
	version := binary.LittleEndian.Uint32(hdr[0:4])
	if version != FormatVersion {
		return nil, fmt.Errorf("%w: file has version %d, this build reads %d", ErrVersionMismatch, version, FormatVersion)
	}
	plen := binary.LittleEndian.Uint64(hdr[4:12])
	if plen > maxPayload {
		return nil, fmt.Errorf("%w: implausible payload length %d", ErrCorrupt, plen)
	}
	// The buffer grows as bytes arrive: a forged length field costs only
	// the bytes actually present, not a plen-sized allocation up front.
	var payload bytes.Buffer
	if _, err := io.CopyN(&payload, r, int64(plen)); err != nil {
		return nil, fmt.Errorf("%w: reading %d-byte payload: %v", ErrTruncated, plen, err)
	}
	var tail [4]byte
	if _, err := io.ReadFull(r, tail[:]); err != nil {
		return nil, fmt.Errorf("%w: reading checksum: %v", ErrTruncated, err)
	}
	crc := crc32.NewIEEE()
	crc.Write(magic[:])
	crc.Write(hdr[:])
	crc.Write(payload.Bytes())
	if got, want := binary.LittleEndian.Uint32(tail[:]), crc.Sum32(); got != want {
		return nil, fmt.Errorf("%w: stored %08x, computed %08x", ErrCorrupt, got, want)
	}
	var c train.CheckpointState
	if err := gob.NewDecoder(&payload).Decode(&c); err != nil {
		return nil, fmt.Errorf("%w: decoding payload: %v", ErrCorrupt, err)
	}
	return &c, nil
}

// checkpointName formats the on-disk name for a sequence number. Fixed-width
// numbering makes lexicographic order the write order.
func checkpointName(seq int) string { return fmt.Sprintf("ckpt-%010d.ckpt", seq) }

// checkpointSeq parses a checkpoint file name; ok is false for foreign files.
func checkpointSeq(name string) (int, bool) {
	if !strings.HasPrefix(name, "ckpt-") || !strings.HasSuffix(name, ".ckpt") {
		return 0, false
	}
	seq, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "ckpt-"), ".ckpt"))
	if err != nil || seq < 0 {
		return 0, false
	}
	return seq, true
}

// listCheckpoints returns the checkpoint file names in dir, oldest first.
func listCheckpoints(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if _, ok := checkpointSeq(e.Name()); ok {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// LatestCheckpoint returns the path of the newest checkpoint in dir, or ""
// when the directory holds none (a missing directory also counts as none).
func LatestCheckpoint(dir string) (string, error) {
	names, err := listCheckpoints(dir)
	if errors.Is(err, os.ErrNotExist) {
		return "", nil
	}
	if err != nil {
		return "", err
	}
	if len(names) == 0 {
		return "", nil
	}
	return filepath.Join(dir, names[len(names)-1]), nil
}

// ReadSnapshotFile loads and verifies one checkpoint file.
func ReadSnapshotFile(path string) (*train.CheckpointState, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	c, err := DecodeSnapshot(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// WriteSnapshotFile writes one checkpoint crash-safely: the bytes go to a
// temp file in the same directory, are fsynced, and only then renamed onto
// the final name (with a directory fsync after). A crash or injected I/O
// error at any point leaves either the previous file or nothing at the
// target path — never a partial checkpoint. The injector (nil-safe) can fail
// the write, sync or rename steps deterministically.
func WriteSnapshotFile(dir string, seq int, c *train.CheckpointState, inj *faultinject.Injector) (string, error) {
	path := filepath.Join(dir, checkpointName(seq))
	tmp, err := os.CreateTemp(dir, ".ckpt-*.tmp")
	if err != nil {
		return "", fmt.Errorf("resilience: creating temp checkpoint: %w", err)
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err := inj.Err(faultinject.PointCkptWrite); err != nil {
		return "", fmt.Errorf("resilience: writing checkpoint: %w", err)
	}
	if err := EncodeSnapshot(tmp, c); err != nil {
		return "", fmt.Errorf("resilience: writing checkpoint: %w", err)
	}
	if err := inj.Err(faultinject.PointCkptSync); err != nil {
		return "", fmt.Errorf("resilience: syncing checkpoint: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		return "", fmt.Errorf("resilience: syncing checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		tmp = nil
		return "", fmt.Errorf("resilience: closing checkpoint: %w", err)
	}
	tmpName := tmp.Name()
	if err := inj.Err(faultinject.PointCkptRename); err != nil {
		os.Remove(tmpName)
		tmp = nil
		return "", fmt.Errorf("resilience: publishing checkpoint: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		tmp = nil
		return "", fmt.Errorf("resilience: publishing checkpoint: %w", err)
	}
	tmp = nil
	// Persist the rename itself. Directory fsync is best-effort: some
	// filesystems refuse to sync directories, which must not fail the write.
	if d, derr := os.Open(dir); derr == nil {
		d.Sync()
		d.Close()
	}
	return path, nil
}

// PruneCheckpoints keeps the newest `keep` checkpoints in dir and removes
// the rest (bounded retention). keep ≤ 0 disables pruning.
func PruneCheckpoints(dir string, keep int) error {
	if keep <= 0 {
		return nil
	}
	names, err := listCheckpoints(dir)
	if err != nil {
		return err
	}
	for _, name := range names[:max(0, len(names)-keep)] {
		if rerr := os.Remove(filepath.Join(dir, name)); rerr != nil && err == nil {
			err = rerr
		}
	}
	return err
}
