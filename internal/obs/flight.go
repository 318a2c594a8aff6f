package obs

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// FlightRecorder is the always-on postmortem buffer: it keeps the last N
// completed root span trees (whole batches) in lock-striped ring buffers and,
// when something goes wrong — health rollback, breaker open — writes them
// plus a registry snapshot to one bounded JSON file. The point is to answer
// "what was the scheduler doing right before the failure" without anyone
// having enabled tracing in advance.
//
// Retention is bounded twice over: ring capacity bounds tree count, and
// span.go's maxTreeSpans/maxSpanAttrs bound each tree, so the recorder's
// memory is O(N · maxTreeSpans) regardless of workload. A nil *FlightRecorder
// is inert.
type FlightRecorder struct {
	dir    string
	tag    string // per-process filename tag (pid + nonce)
	reg    *Registry
	seq    atomic.Uint64 // dump file sequence
	next   atomic.Uint64 // round-robin stripe cursor
	now    func() time.Time
	stripe [flightStripes]flightStripe
}

// flightStripes is the lock-stripe count; concurrent request goroutines hash
// onto different stripes so span retention never serializes them.
const flightStripes = 8

type flightStripe struct {
	mu    sync.Mutex
	ring  []*Span
	head  int
	count int
}

// keep retains one root tree, evicting the oldest when full.
func (st *flightStripe) keep(s *Span) {
	st.mu.Lock()
	if st.count < len(st.ring) {
		st.ring[(st.head+st.count)%len(st.ring)] = s
		st.count++
	} else {
		st.ring[st.head] = s
		st.head = (st.head + 1) % len(st.ring)
	}
	st.mu.Unlock()
}

// snapshot returns the stripe's trees oldest-first.
func (st *flightStripe) snapshot() []*Span {
	st.mu.Lock()
	out := make([]*Span, 0, st.count)
	for i := 0; i < st.count; i++ {
		out = append(out, st.ring[(st.head+i)%len(st.ring)])
	}
	st.mu.Unlock()
	return out
}

// NewFlightRecorder records the last lastN root span trees and dumps them
// into dir (created on first dump). reg, when non-nil, contributes a metric
// snapshot to each dump — that is how ABS state (cascade_batch_size etc.)
// lands in postmortems.
func NewFlightRecorder(dir string, lastN int, reg *Registry) *FlightRecorder {
	if lastN < flightStripes {
		lastN = flightStripes
	}
	// The tag makes dump names unique across processes sharing one dir (a
	// router and its shards all dumping on the same failure): pid separates
	// live processes, the random nonce separates pid reuse across restarts
	// and multiple recorders inside one test process.
	var nonce [4]byte
	_, _ = rand.Read(nonce[:])
	tag := fmt.Sprintf("p%d-%s", os.Getpid(), hex.EncodeToString(nonce[:]))
	f := &FlightRecorder{dir: dir, tag: tag, reg: reg, now: time.Now}
	per := (lastN + flightStripes - 1) / flightStripes
	for i := range f.stripe {
		f.stripe[i].ring = make([]*Span, per)
	}
	return f
}

// SetClock overrides the recorder's wall clock (tests).
func (f *FlightRecorder) SetClock(now func() time.Time) {
	if f == nil || now == nil {
		return
	}
	f.now = now
}

// OnSpanEnd implements SpanSink: root trees go into the ring, child spans
// are ignored (they ride along inside their root). Nil-safe.
func (f *FlightRecorder) OnSpanEnd(s *Span) {
	if f == nil || s == nil || !s.IsRoot() {
		return
	}
	f.stripe[f.next.Add(1)%flightStripes].keep(s)
}

// flightSpan is the dump-file representation of one span tree node.
type flightSpan struct {
	Name     string         `json:"name"`
	Phase    string         `json:"phase"`
	ID       uint64         `json:"id"`
	StartUS  int64          `json:"start_us"`
	DurUS    int64          `json:"dur_us"`
	Attrs    map[string]any `json:"attrs,omitempty"`
	Dropped  int            `json:"dropped_children,omitempty"`
	Children []flightSpan   `json:"children,omitempty"`
}

func encodeTree(s *Span, epoch time.Time) flightSpan {
	out := flightSpan{
		Name:    s.Name(),
		Phase:   s.PhaseOf().String(),
		ID:      s.ID(),
		StartUS: s.StartTime().Sub(epoch).Microseconds(),
		DurUS:   s.Duration().Microseconds(),
		Dropped: s.DroppedChildren(),
	}
	if attrs := s.Attrs(); len(attrs) > 0 {
		out.Attrs = make(map[string]any, len(attrs))
		for _, a := range attrs {
			out.Attrs[a.Key] = a.Value()
		}
	}
	s.VisitChildren(func(c *Span) {
		out.Children = append(out.Children, encodeTree(c, epoch))
	})
	return out
}

// flightDump is the on-disk schema of one dump file.
type flightDump struct {
	Reason  string             `json:"reason"`
	Time    string             `json:"time"`
	Spans   []flightSpan       `json:"spans"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Dump writes exactly one file, flight-<tag>-<seq>-<reason>.json, holding
// the retained span trees (oldest first) and a registry snapshot. The tag
// (pid + random nonce) keeps names collision-free when several processes —
// the router and its shards — share one -flight-dir. It returns the file
// path. Nil-safe: a nil recorder dumps nothing and returns "".
func (f *FlightRecorder) Dump(reason string) (string, error) {
	if f == nil {
		return "", nil
	}
	var roots []*Span
	for i := range f.stripe {
		roots = append(roots, f.stripe[i].snapshot()...)
	}
	// Merge stripes into global start-time order.
	for i := 1; i < len(roots); i++ {
		for j := i; j > 0 && roots[j].StartTime().Before(roots[j-1].StartTime()); j-- {
			roots[j], roots[j-1] = roots[j-1], roots[j]
		}
	}
	var epoch time.Time
	if len(roots) > 0 {
		epoch = roots[0].StartTime()
	}
	dump := flightDump{
		Reason:  reason,
		Time:    f.now().UTC().Format(time.RFC3339Nano),
		Spans:   make([]flightSpan, 0, len(roots)),
		Metrics: f.reg.Snapshot(),
	}
	for _, r := range roots {
		dump.Spans = append(dump.Spans, encodeTree(r, epoch))
	}
	if err := os.MkdirAll(f.dir, 0o755); err != nil {
		return "", fmt.Errorf("flight recorder: %w", err)
	}
	name := fmt.Sprintf("flight-%s-%04d-%s.json", f.tag, f.seq.Add(1), sanitizeReason(reason))
	path := filepath.Join(f.dir, name)
	buf, err := json.MarshalIndent(dump, "", "  ")
	if err != nil {
		return "", fmt.Errorf("flight recorder: %w", err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return "", fmt.Errorf("flight recorder: %w", err)
	}
	return path, nil
}

// Retained reports how many root trees the ring currently holds (nil-safe).
func (f *FlightRecorder) Retained() int {
	if f == nil {
		return 0
	}
	n := 0
	for i := range f.stripe {
		f.stripe[i].mu.Lock()
		n += f.stripe[i].count
		f.stripe[i].mu.Unlock()
	}
	return n
}

// sanitizeReason keeps dump-file names filesystem-safe.
func sanitizeReason(r string) string {
	if r == "" {
		return "unknown"
	}
	b := []byte(r)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '_', c == '-':
		case c >= 'A' && c <= 'Z':
			b[i] = c - 'A' + 'a'
		default:
			b[i] = '_'
		}
	}
	return string(b)
}
