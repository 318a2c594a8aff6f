package obs

import (
	"sync"
	"testing"
)

// TestNilTracerInert pins the disabled fast path: every Tracer/Span method
// must be callable on nil receivers, returning zero values, so instrumented
// code never guards.
func TestNilTracerInert(t *testing.T) {
	var tr *Tracer
	if tr.ID() != "" || !tr.Epoch().IsZero() {
		t.Fatal("nil tracer leaked state")
	}
	s := tr.Start("batch", PhaseOther)
	if s != nil {
		t.Fatal("nil tracer produced a span")
	}
	c := s.Child("embed", PhaseEmbed)
	if c != nil {
		t.Fatal("nil span produced a child")
	}
	s.SetInt("size", 200)
	s.SetFloat("loss", 0.5)
	s.SetStr("cut", "dependency")
	s.End()
	s.End()
	if s.Name() != "" || s.ID() != 0 || s.ParentID() != 0 || s.IsRoot() {
		t.Fatal("nil span accessors leaked state")
	}
	if s.PhaseOf() != PhaseOther || s.Duration() != 0 || s.DroppedChildren() != 0 {
		t.Fatal("nil span accessors leaked state")
	}
	if s.Attrs() != nil {
		t.Fatal("nil span has attrs")
	}
	if _, ok := s.Attr("size"); ok {
		t.Fatal("nil span resolved an attr")
	}
	s.VisitChildren(func(*Span) { t.Fatal("nil span visited a child") })
	var cw *ChromeTraceWriter
	cw.OnSpanEnd(nil)
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	var fr *FlightRecorder
	fr.OnSpanEnd(nil)
	if p, err := fr.Dump("x"); p != "" || err != nil {
		t.Fatalf("nil recorder dumped: %q %v", p, err)
	}
}

// TestNilTracerNoAlloc verifies the disabled path allocates nothing — the
// tentpole's "near-zero overhead when disabled" requirement.
func TestNilTracerNoAlloc(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(100, func() {
		s := tr.Start("batch", PhaseOther)
		c := s.Child("embed", PhaseEmbed)
		c.SetInt("size", 200)
		c.SetFloat("loss", 0.25)
		c.SetStr("cut", "dependency")
		c.End()
		s.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing allocates %v per batch, want 0", allocs)
	}
}

func TestSpanTreeAndAttrs(t *testing.T) {
	tr := NewTracer(TracerOptions{})
	if tr.ID() == "" {
		t.Fatal("tracer ID empty")
	}
	root := tr.Start("batch", PhaseOther)
	root.SetInt("epoch", 3)
	embed := root.Child("embed", PhaseEmbed)
	embed.SetFloat("loss", 0.125)
	embed.End()
	back := root.Child("backward", PhaseBackward)
	back.End()
	root.End()

	if !root.IsRoot() || embed.IsRoot() {
		t.Fatal("root/child confusion")
	}
	if embed.ParentID() != root.ID() {
		t.Fatalf("parent = %d, want %d", embed.ParentID(), root.ID())
	}
	if v, ok := root.Attr("epoch"); !ok || v.(int64) != 3 {
		t.Fatalf("epoch attr = %v, %v", v, ok)
	}
	if v, ok := embed.Attr("loss"); !ok || v.(float64) != 0.125 {
		t.Fatalf("loss attr = %v, %v", v, ok)
	}
	var kids []string
	root.VisitChildren(func(c *Span) { kids = append(kids, c.Name()) })
	if len(kids) != 2 || kids[0] != "embed" || kids[1] != "backward" {
		t.Fatalf("children = %v", kids)
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	var got []*Span
	tr := NewTracer(TracerOptions{Sinks: []SpanSink{sinkFunc(func(s *Span) { got = append(got, s) })}})
	s := tr.Start("x", PhaseOther)
	s.End()
	s.End()
	if len(got) != 1 {
		t.Fatalf("sink saw %d ends, want 1", len(got))
	}
}

type sinkFunc func(*Span)

func (f sinkFunc) OnSpanEnd(s *Span) { f(s) }

// TestSpanTreeCap pins the bounded-memory contract: children past
// maxTreeSpans are dropped and counted, never retained.
func TestSpanTreeCap(t *testing.T) {
	tr := NewTracer(TracerOptions{})
	root := tr.Start("batch", PhaseOther)
	for i := 0; i < maxTreeSpans+100; i++ {
		root.Child("c", PhaseOther).End()
	}
	kept := 0
	root.VisitChildren(func(*Span) { kept++ })
	if kept != maxTreeSpans-1 {
		t.Fatalf("kept %d children, want %d", kept, maxTreeSpans-1)
	}
	if root.DroppedChildren() != 101 {
		t.Fatalf("dropped = %d, want 101", root.DroppedChildren())
	}
	root.End()
}

func TestSpanAttrCap(t *testing.T) {
	tr := NewTracer(TracerOptions{})
	s := tr.Start("x", PhaseOther)
	for i := 0; i < maxSpanAttrs+10; i++ {
		s.SetInt("k", int64(i))
	}
	if got := len(s.Attrs()); got != maxSpanAttrs {
		t.Fatalf("attrs = %d, want %d", got, maxSpanAttrs)
	}
	s.End()
}

// TestSpanConcurrentEmit is the satellite -race test: many goroutines
// building span trees, setting attrs, and ending spans concurrently while
// all three sink kinds consume them.
func TestSpanConcurrentEmit(t *testing.T) {
	var mu sync.Mutex
	ends := 0
	tr := NewTracer(TracerOptions{
		Chrome: NewChromeTrace(&syncDiscard{}),
		Flight: NewFlightRecorder(t.TempDir(), 16, nil),
		Sinks: []SpanSink{sinkFunc(func(*Span) {
			mu.Lock()
			ends++
			mu.Unlock()
		})},
	})
	const workers, batches, children = 8, 20, 5
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				root := tr.Start("batch", PhaseOther)
				root.SetInt("worker", int64(w))
				var cwg sync.WaitGroup
				for c := 0; c < children; c++ {
					cwg.Add(1)
					go func(c int) {
						defer cwg.Done()
						ch := root.Child("child", Phase(c%NumPhases))
						ch.SetInt("i", int64(c))
						ch.End()
					}(c)
				}
				cwg.Wait()
				root.End()
			}
		}(w)
	}
	wg.Wait()
	want := workers * batches * (1 + children)
	if ends != want {
		t.Fatalf("sink saw %d span ends, want %d", ends, want)
	}
}

// syncDiscard is an io.Writer that swallows bytes (mutex-free; the Chrome
// writer serializes).
type syncDiscard struct{}

func (*syncDiscard) Write(p []byte) (int, error) { return len(p), nil }
