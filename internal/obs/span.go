package obs

import (
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Hierarchical tracing (DESIGN.md §11). A Tracer hands out Spans — timed,
// attributed, parent-linked intervals — and fans every completed span out to
// its sinks: the Chrome trace exporter (chrome.go) and the flight recorder
// (flight.go).
//
// The hot-path contract mirrors the rest of this package: a nil *Tracer and
// a nil *Span are fully inert, every method is safe to call on them, and the
// disabled path performs no allocation and no time.Now call — attribute
// setters take typed scalars (SetInt/SetFloat/SetStr) precisely so the
// disabled call sites never box values into an interface. Spans themselves
// are safe for concurrent use: a child may start and end on a different
// goroutine than its parent (the trainer's prefetch pipeline does exactly
// that), with the parent's mutex guarding child registration.

// Phase assigns a span to one of the pipeline lanes of the Cascade training
// loop. The Chrome exporter renders one lane (tid) per phase.
type Phase uint8

// Pipeline phases, in lane order.
const (
	// PhaseDiffuser is the TG-Diffuser boundary lookup (Scheduler.Next).
	PhaseDiffuser Phase = iota
	// PhaseFilter is the SG-Filter similarity update.
	PhaseFilter
	// PhaseABS is the Adaptive Batch-size Sensor's decay decision.
	PhaseABS
	// PhaseEmbed is the embedding + prediction forward pass.
	PhaseEmbed
	// PhaseBackward is the backward pass.
	PhaseBackward
	// PhaseOptim is the optimizer step.
	PhaseOptim
	// PhaseMemory is the node-memory update (BeginBatch apply + EndBatch
	// message generation).
	PhaseMemory
	// PhaseOther is everything unlaned: batch roots, host-side batch prep,
	// serve requests.
	PhaseOther

	// NumPhases bounds the lane count (PhaseOther included).
	NumPhases = int(PhaseOther) + 1
)

var phaseNames = [NumPhases]string{
	"tg_diffuser", "sg_filter", "abs_decision", "embed_forward",
	"backward", "optimizer_step", "memory_update", "other",
}

// String returns the lane name ("tg_diffuser", "embed_forward", …).
func (p Phase) String() string {
	if int(p) < NumPhases {
		return phaseNames[p]
	}
	return "other"
}

// Attr is one key-value span attribute. Exactly one of the value fields is
// meaningful, selected by Kind; the split into typed fields keeps attribute
// setters allocation-free on the disabled path.
type Attr struct {
	Key  string
	Kind AttrKind
	Num  float64
	Str  string
}

// AttrKind discriminates Attr's value field.
type AttrKind uint8

// Attribute kinds.
const (
	AttrFloat AttrKind = iota
	AttrInt
	AttrStr
)

// Value returns the attribute's value boxed for JSON encoding. Non-finite
// floats become strings ("NaN", "+Inf", "-Inf"): encoding/json rejects
// them, and the NaN-loss batch is exactly the one a flight dump must not
// fail to serialize.
func (a Attr) Value() any {
	switch a.Kind {
	case AttrInt:
		return int64(a.Num)
	case AttrStr:
		return a.Str
	default:
		if math.IsNaN(a.Num) {
			return "NaN"
		}
		if math.IsInf(a.Num, 1) {
			return "+Inf"
		}
		if math.IsInf(a.Num, -1) {
			return "-Inf"
		}
		return a.Num
	}
}

// SpanSink consumes completed spans. OnSpanEnd runs synchronously inside
// Span.End and must be cheap and concurrency-safe; the span's own fields are
// immutable after End, but its children slice may only be read via
// Span.VisitChildren (a late child registration can race a dump otherwise).
type SpanSink interface {
	OnSpanEnd(*Span)
}

// maxTreeSpans bounds one root span's tree. Children beyond the cap are
// dropped (counted in Dropped) so a pathological batch cannot grow the
// flight-recorder ring without bound.
const maxTreeSpans = 512

// maxSpanAttrs bounds attributes per span for the same reason.
const maxSpanAttrs = 64

// Tracer is the span factory. A nil tracer is inert; a non-nil tracer is
// safe for concurrent use from any number of goroutines.
type Tracer struct {
	ids   atomic.Uint64
	epoch time.Time
	id    string
	sinks []SpanSink
}

// TracerOptions wires a Tracer's consumers. All fields optional.
type TracerOptions struct {
	// Chrome, when non-nil, receives every completed span as a Chrome
	// trace event.
	Chrome *ChromeTraceWriter
	// Flight, when non-nil, receives completed root span trees into its
	// ring buffer.
	Flight *FlightRecorder
	// Sinks appends extra consumers.
	Sinks []SpanSink
}

// NewTracer builds a tracer with the given consumers.
func NewTracer(opt TracerOptions) *Tracer {
	t := &Tracer{epoch: time.Now()}
	t.id = "t" + strconv.FormatInt(t.epoch.UnixNano(), 36)
	if opt.Chrome != nil {
		opt.Chrome.epoch = t.epoch
		t.sinks = append(t.sinks, opt.Chrome)
	}
	if opt.Flight != nil {
		t.sinks = append(t.sinks, opt.Flight)
	}
	t.sinks = append(t.sinks, opt.Sinks...)
	return t
}

// ID returns a process-unique trace identifier for log correlation (the
// -log-level flags attach it to every record). Nil-safe: "" when disabled.
func (t *Tracer) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Epoch is the tracer's construction time — the zero point of Chrome trace
// timestamps.
func (t *Tracer) Epoch() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.epoch
}

// Start opens a root span. Nil-safe: a nil tracer returns a nil span and
// performs no work at all.
func (t *Tracer) Start(name string, phase Phase) *Span {
	if t == nil {
		return nil
	}
	s := &Span{tr: t, name: name, phase: phase, id: t.ids.Add(1), start: time.Now()}
	s.root = s
	s.treeSize = new(atomic.Int32)
	s.treeSize.Store(1)
	return s
}

// Span is one timed interval. Fields are written by the owning goroutine
// between Start/Child and End; child registration on a shared parent is the
// only cross-goroutine write and is mutex-guarded.
type Span struct {
	tr     *Tracer
	name   string
	phase  Phase
	id     uint64
	parent uint64
	start  time.Time
	end    time.Time

	root     *Span
	treeSize *atomic.Int32

	// sctx is the span's distributed-trace identity (ctx.go). Written once
	// by StartRemote before the span escapes; zero for plain Start spans.
	sctx SpanContext

	mu       sync.Mutex
	attrs    []Attr
	children []*Span
	dropped  int32
}

// Child opens a sub-span. Nil-safe; when the tree has hit its span cap the
// child is dropped (counted on the root) and nil is returned, which the
// nil-safe API makes transparent to the caller.
func (s *Span) Child(name string, phase Phase) *Span {
	if s == nil {
		return nil
	}
	if s.root.treeSize.Add(1) > maxTreeSpans {
		s.root.treeSize.Add(-1)
		s.root.mu.Lock()
		s.root.dropped++
		s.root.mu.Unlock()
		return nil
	}
	c := &Span{
		tr: s.tr, name: name, phase: phase, id: s.tr.ids.Add(1),
		parent: s.id, root: s.root, treeSize: s.treeSize, start: time.Now(),
	}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// setAttr appends one attribute under the span's lock, honoring the cap.
func (s *Span) setAttr(a Attr) {
	s.mu.Lock()
	if len(s.attrs) < maxSpanAttrs {
		s.attrs = append(s.attrs, a)
	}
	s.mu.Unlock()
}

// SetInt attaches an integer attribute. Nil-safe and allocation-free when
// the span is nil.
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.setAttr(Attr{Key: key, Kind: AttrInt, Num: float64(v)})
}

// SetFloat attaches a float attribute (nil-safe).
func (s *Span) SetFloat(key string, v float64) {
	if s == nil {
		return
	}
	s.setAttr(Attr{Key: key, Kind: AttrFloat, Num: v})
}

// SetStr attaches a string attribute (nil-safe).
func (s *Span) SetStr(key, v string) {
	if s == nil {
		return
	}
	s.setAttr(Attr{Key: key, Kind: AttrStr, Str: v})
}

// End closes the span and delivers it to every sink. End a span exactly
// once, after its children have ended; End is nil-safe and a second End on
// the same span is ignored.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.end.IsZero() {
		s.mu.Unlock()
		return
	}
	s.end = time.Now()
	s.mu.Unlock()
	for _, sink := range s.tr.sinks {
		sink.OnSpanEnd(s)
	}
}

// Accessors (valid after End; used by sinks and tests).

// Name returns the span name ("" on nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// PhaseOf returns the span's pipeline lane (PhaseOther on nil).
func (s *Span) PhaseOf() Phase {
	if s == nil {
		return PhaseOther
	}
	return s.phase
}

// ID returns the span id (0 on nil).
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// ParentID returns the parent span id (0 for roots and nil spans).
func (s *Span) ParentID() uint64 {
	if s == nil {
		return 0
	}
	return s.parent
}

// IsRoot reports whether the span heads a tree.
func (s *Span) IsRoot() bool { return s != nil && s.parent == 0 }

// StartTime returns the span's start time (zero on nil).
func (s *Span) StartTime() time.Time {
	if s == nil {
		return time.Time{}
	}
	return s.start
}

// EndTime returns the span's end time (zero before End or on nil).
func (s *Span) EndTime() time.Time {
	if s == nil {
		return time.Time{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.end
}

// Duration returns end − start (0 before End or on nil).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.end.IsZero() {
		return 0
	}
	return s.end.Sub(s.start)
}

// Attrs returns a copy of the span's attributes (nil-safe).
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Attr(nil), s.attrs...)
}

// Attr returns the named attribute's boxed value and whether it exists.
func (s *Span) Attr(key string) (any, bool) {
	if s == nil {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range s.attrs {
		if a.Key == key {
			return a.Value(), true
		}
	}
	return nil, false
}

// VisitChildren calls fn for each child under the span's lock — the only
// race-safe way for sinks to walk a tree that another goroutine may still
// be extending. Nil-safe.
func (s *Span) VisitChildren(fn func(*Span)) {
	if s == nil {
		return
	}
	s.mu.Lock()
	kids := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range kids {
		fn(c)
	}
}

// DroppedChildren reports how many children the tree cap discarded on this
// span (nil-safe).
func (s *Span) DroppedChildren() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return int(s.dropped)
}
