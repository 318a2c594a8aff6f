package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"time"
)

// Tailing errors; match with errors.Is.
var (
	// ErrTailTimeout is returned by Tailer.Next when no committed record
	// past the tailer's position appeared within the wait budget.
	ErrTailTimeout = errors.New("wal: tail timeout")
	// ErrSeqGone means the record the tailer needs next has been compacted
	// away (or the log skipped past it under a newer MinSeq watermark); the
	// reader must fall back to a snapshot and resume from its watermark.
	ErrSeqGone = errors.New("wal: tail sequence truncated away")
	// ErrNotPrefix is returned by VerifyPrefix when the candidate log is not
	// a prefix of the reference log.
	ErrNotPrefix = errors.New("wal: not a prefix")
)

// EncodeFrame encodes one record with the CASCWAL1 frame codec — the unit the
// replication protocol ships, so a standby appends the primary's bytes
// verbatim and CRC-checks them with the same table.
func EncodeFrame(seq uint64, payload []byte) []byte {
	return frame(nil, seq, payload)
}

// DecodeFrame validates and decodes one CASCWAL1 frame produced by
// EncodeFrame. The returned payload aliases b.
func DecodeFrame(b []byte) (seq uint64, payload []byte, err error) {
	if len(b) < frameHeaderSize {
		return 0, nil, fmt.Errorf("wal: frame truncated at %d bytes", len(b))
	}
	plen := binary.LittleEndian.Uint32(b[0:4])
	seq = binary.LittleEndian.Uint64(b[4:12])
	want := binary.LittleEndian.Uint32(b[12:16])
	if plen > MaxRecordBytes {
		return 0, nil, fmt.Errorf("wal: implausible frame payload length %d", plen)
	}
	if len(b) != frameHeaderSize+int(plen) {
		return 0, nil, fmt.Errorf("wal: frame length %d, header declares %d", len(b), frameHeaderSize+plen)
	}
	payload = b[frameHeaderSize:]
	crc := crc32.Checksum(b[0:12], castagnoli)
	crc = crc32.Update(crc, castagnoli, payload)
	if crc != want {
		return 0, nil, fmt.Errorf("wal: frame checksum %08x, computed %08x", want, crc)
	}
	return seq, payload, nil
}

// Tailer reads committed records out of a live log, following the writer —
// the primary side of WAL-shipping replication. It owns read-only file
// handles, so tailing never contends with appends beyond the commit-watermark
// lookups. Not safe for concurrent use by multiple goroutines.
type Tailer struct {
	l        *Log
	last     uint64 // last seq handed out
	f        *os.File
	segFirst uint64
	off      int64
	hdr      [frameHeaderSize]byte
}

// TailFrom returns a Tailer positioned after last: the first Next returns
// record last+1 (or ErrSeqGone if compaction already dropped it).
func (l *Log) TailFrom(last uint64) *Tailer {
	return &Tailer{l: l, last: last}
}

// Last returns the sequence number of the last record Next handed out.
func (t *Tailer) Last() uint64 { return t.last }

// Close releases the tailer's file handle. The log itself is untouched.
func (t *Tailer) Close() {
	if t.f != nil {
		t.f.Close()
		t.f = nil
	}
}

// errors internal to the read loop: a frame that is not (yet) fully on disk.
var (
	errTailEOF     = errors.New("wal: tail at segment end") // clean frame boundary
	errTailPartial = errors.New("wal: tail mid-write")      // bytes still landing
)

// Next returns the next committed record, waiting up to wait for one to
// appear. Only records at or below the log's committed (fsynced) watermark
// are ever returned — a crash cannot un-write what a tailer has shipped.
// Returns ErrTailTimeout when the budget expires, ErrSeqGone when compaction
// outran the tailer, ErrClosed when the log closed.
func (t *Tailer) Next(wait time.Duration) (uint64, []byte, error) {
	deadline := time.Now().Add(wait)
	for {
		// Gate on the commit watermark: never read a frame the writer has
		// not fsynced, so a primary crash cannot leave this reader (and the
		// standby behind it) holding records the restarted primary forgot.
		committed := t.l.CommittedSeq()
		if committed <= t.last {
			if !t.l.WaitCommitted(t.last+1, time.Until(deadline)) {
				if t.l.Closed() {
					return 0, nil, ErrClosed
				}
				return 0, nil, ErrTailTimeout
			}
			continue
		}
		if t.f == nil {
			if err := t.openSegmentFor(t.last + 1); err != nil {
				if errors.Is(err, errTailPartial) {
					if !t.pause(deadline) {
						return 0, nil, ErrTailTimeout
					}
					continue
				}
				return 0, nil, err
			}
		}
		seq, payload, n, err := t.readFrame()
		switch {
		case err == nil:
			t.off += n
			if seq <= t.last {
				continue // catching up inside the segment
			}
			if seq != t.last+1 {
				// A gap inside a segment: appends resumed above a newer
				// MinSeq watermark. The skipped range is unrecoverable here.
				return 0, nil, fmt.Errorf("%w: want %d, found %d", ErrSeqGone, t.last+1, seq)
			}
			t.last = seq
			return seq, payload, nil
		case errors.Is(err, errTailEOF):
			next, nerr := t.nextSegmentName()
			if nerr != nil {
				return 0, nil, nerr
			}
			if next == "" {
				// Active segment, writer just hasn't appended yet (commit
				// can lead the read position right after a seal).
				if !t.pause(deadline) {
					return 0, nil, ErrTailTimeout
				}
				continue
			}
			// A later segment exists, so the current one is sealed and this
			// EOF is final: advance.
			t.Close()
			if err := t.openSegmentPath(next); err != nil {
				if errors.Is(err, errTailPartial) {
					if !t.pause(deadline) {
						return 0, nil, ErrTailTimeout
					}
					continue
				}
				return 0, nil, err
			}
		case errors.Is(err, errTailPartial):
			if !t.pause(deadline) {
				return 0, nil, ErrTailTimeout
			}
		default:
			return 0, nil, err
		}
	}
}

// pause sleeps briefly within the deadline; reports false once it has passed.
func (t *Tailer) pause(deadline time.Time) bool {
	if !time.Now().Before(deadline) {
		return false
	}
	time.Sleep(time.Millisecond)
	return true
}

// readFrame parses the frame at the current offset without advancing it.
// A clean EOF at a frame boundary is errTailEOF; anything that looks like a
// concurrent append still landing (short header, short payload, checksum over
// half-written bytes) is errTailPartial — the commit gate guarantees the
// frame this tailer needs is durable, so partial reads always resolve.
func (t *Tailer) readFrame() (seq uint64, payload []byte, size int64, err error) {
	n, rerr := t.f.ReadAt(t.hdr[:], t.off)
	if n == 0 && errors.Is(rerr, io.EOF) {
		return 0, nil, 0, errTailEOF
	}
	if n < frameHeaderSize {
		return 0, nil, 0, errTailPartial
	}
	plen := binary.LittleEndian.Uint32(t.hdr[0:4])
	seq = binary.LittleEndian.Uint64(t.hdr[4:12])
	want := binary.LittleEndian.Uint32(t.hdr[12:16])
	if plen > MaxRecordBytes {
		return 0, nil, 0, errTailPartial
	}
	payload = make([]byte, plen)
	if n, rerr := t.f.ReadAt(payload, t.off+frameHeaderSize); rerr != nil && n < int(plen) {
		return 0, nil, 0, errTailPartial
	}
	crc := crc32.Checksum(t.hdr[0:12], castagnoli)
	crc = crc32.Update(crc, castagnoli, payload)
	if crc != want {
		return 0, nil, 0, errTailPartial
	}
	return seq, payload, frameHeaderSize + int64(plen), nil
}

// openSegmentFor opens the segment whose name-floor covers seq: the last
// segment whose first-seq is ≤ seq. If every segment starts after seq, that
// record was compacted away (ErrSeqGone).
func (t *Tailer) openSegmentFor(seq uint64) error {
	names, err := ListSegments(t.l.Dir())
	if err != nil {
		return err
	}
	if len(names) == 0 {
		return errTailPartial // first segment still being created
	}
	idx := -1
	for i, name := range names {
		s, _ := segmentSeq(name)
		if s <= seq {
			idx = i
		} else {
			break
		}
	}
	if idx < 0 {
		first, _ := segmentSeq(names[0])
		return fmt.Errorf("%w: want %d, oldest segment starts at %d", ErrSeqGone, seq, first)
	}
	return t.openSegmentPath(names[idx])
}

// openSegmentPath opens one segment read-only and validates its header.
func (t *Tailer) openSegmentPath(name string) error {
	f, err := os.Open(filepath.Join(t.l.Dir(), name))
	if err != nil {
		if os.IsNotExist(err) {
			return errTailPartial // raced a truncation; re-list next pass
		}
		return err
	}
	hdr := make([]byte, segHeaderSize)
	if _, err := io.ReadFull(f, hdr); err != nil {
		f.Close()
		return errTailPartial // header still being written
	}
	first, err := parseSegHeader(hdr)
	if err != nil {
		f.Close()
		return fmt.Errorf("%w: %s: %v", ErrCorrupt, name, err)
	}
	t.f, t.segFirst, t.off = f, first, segHeaderSize
	return nil
}

// nextSegmentName returns the first segment after the current one, "" when
// the current segment is the newest.
func (t *Tailer) nextSegmentName() (string, error) {
	names, err := ListSegments(t.l.Dir())
	if err != nil {
		return "", err
	}
	for _, name := range names {
		if s, _ := segmentSeq(name); s > t.segFirst {
			return name, nil
		}
	}
	return "", nil
}

// VerifyPrefix checks that the log in subDir (a standby's) is a prefix of the
// log in superDir (its primary's): every record the standby holds that the
// primary still retains must be byte-identical, and the standby must not
// extend past the primary. Records the primary compacted away (below its
// oldest retained seq) are exempt. Torn tails on either side are recovered
// exactly as Open would.
func VerifyPrefix(subDir, superDir string) error {
	superCRC := make(map[uint64]uint32)
	superRec, err := Scan(superDir, 0, func(seq uint64, payload []byte) error {
		superCRC[seq] = crc32.Checksum(payload, castagnoli)
		return nil
	})
	if err != nil {
		return fmt.Errorf("reference log %s: %w", superDir, err)
	}
	subRec, err := Scan(subDir, 0, func(seq uint64, payload []byte) error {
		if superRec.Records > 0 && seq < superRec.FirstSeq {
			return nil // compacted away on the reference side
		}
		want, ok := superCRC[seq]
		if !ok {
			return fmt.Errorf("%w: record %d in %s is absent from %s", ErrNotPrefix, seq, subDir, superDir)
		}
		if got := crc32.Checksum(payload, castagnoli); got != want {
			return fmt.Errorf("%w: record %d differs (payload crc %08x vs %08x)", ErrNotPrefix, seq, got, want)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if subRec.LastSeq > superRec.LastSeq {
		return fmt.Errorf("%w: %s ends at seq %d, past %s at %d",
			ErrNotPrefix, subDir, subRec.LastSeq, superDir, superRec.LastSeq)
	}
	return nil
}
