package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// ChromeTraceWriter streams completed spans as Chrome trace events — the
// JSON array format chrome://tracing and Perfetto load directly. Every
// pipeline phase gets its own lane (tid) named by a thread_name metadata
// event, so the TG-Diffuser / SG-Filter / ABS / embed / backward / optimizer
// / memory-update breakdown reads as seven parallel tracks (plus "other").
//
// Writes are mutex-serialized; each span becomes one complete ("ph":"X")
// event at End time. Close terminates the JSON array; the file is invalid
// JSON until then (Chrome tolerates a truncated array, encoding/json does
// not).
type ChromeTraceWriter struct {
	mu     sync.Mutex
	w      io.Writer
	closer io.Closer
	epoch  time.Time
	wrote  bool
	closed bool
	err    error
}

// chromeEvent is one trace-event record.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts,omitempty"`  // microseconds since epoch
	Dur  float64        `json:"dur,omitempty"` // microseconds
	Args map[string]any `json:"args,omitempty"`
}

// NewChromeTrace wraps w in a trace writer and emits the lane-naming
// metadata for every phase lane up front, so every lane exists in the
// output even when a run never touches it (e.g. sg_filter under a fixed
// scheduler). If w is an io.Closer, Close closes it.
func NewChromeTrace(w io.Writer) *ChromeTraceWriter {
	c := &ChromeTraceWriter{w: w, epoch: time.Now()}
	if cl, ok := w.(io.Closer); ok {
		c.closer = cl
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.write([]byte("[\n"))
	for i := 0; i < NumPhases; i++ {
		c.emit(chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: i,
			Args: map[string]any{"name": Phase(i).String()},
		})
	}
	c.emit(chromeEvent{
		Name: "process_name", Ph: "M", Pid: 1,
		Args: map[string]any{"name": "cascade"},
	})
	return c
}

// write appends raw bytes, latching the first error. Caller holds c.mu.
func (c *ChromeTraceWriter) write(b []byte) {
	if c.err != nil {
		return
	}
	_, c.err = c.w.Write(b)
}

// emit appends one event (comma-separated). Caller holds c.mu.
func (c *ChromeTraceWriter) emit(ev chromeEvent) {
	if c.err != nil || c.closed {
		return
	}
	buf, err := json.Marshal(ev)
	if err != nil {
		c.err = err
		return
	}
	if c.wrote {
		c.write([]byte(",\n"))
	}
	c.wrote = true
	c.write(buf)
}

// OnSpanEnd implements SpanSink: one complete event per span, laned by
// phase. Nil-safe so a Tracer without a Chrome writer costs nothing.
func (c *ChromeTraceWriter) OnSpanEnd(s *Span) {
	if c == nil || s == nil {
		return
	}
	ev := chromeEvent{
		Name: s.Name(), Ph: "X", Pid: 1, Tid: int(s.PhaseOf()),
		Ts:  float64(s.StartTime().Sub(c.epoch).Nanoseconds()) / 1e3,
		Dur: float64(s.Duration().Nanoseconds()) / 1e3,
	}
	attrs := s.Attrs()
	if len(attrs) > 0 || s.ParentID() != 0 {
		ev.Args = make(map[string]any, len(attrs)+2)
		for _, a := range attrs {
			ev.Args[a.Key] = a.Value()
		}
		ev.Args["span_id"] = s.ID()
		if p := s.ParentID(); p != 0 {
			ev.Args["parent_id"] = p
		}
	}
	c.mu.Lock()
	c.emit(ev)
	c.mu.Unlock()
}

// Close terminates the JSON array and closes the underlying writer when it
// is closable. Returns the first write error. Nil-safe; spans ended after
// Close are dropped.
func (c *ChromeTraceWriter) Close() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return c.err
	}
	c.write([]byte("\n]\n"))
	c.closed = true
	if c.closer != nil {
		if cerr := c.closer.Close(); cerr != nil && c.err == nil {
			c.err = cerr
		}
		c.closer = nil
	}
	return c.err
}

// Err returns the latched write error, if any (nil-safe).
func (c *ChromeTraceWriter) Err() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}
