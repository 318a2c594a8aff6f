package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public function. Parent is the id of the span that caused it (0 for
// a root); Req groups the spans of one request or batch.
type span struct {
	ID, Parent uint64
	Name       string
	Req        uint64
	Start, End time.Time
}

// maxSpans bounds the in-memory trace: a closed loop can issue tens of
// thousands of requests, and the per-layer numbers never need more than the
// first few hundred of each kind.
const maxSpans = 400_000

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, which is how the untraced (end-to-end) run stays free of it.
type recorder struct {
	mu      sync.Mutex
	spans   []span
	nextID  uint64
	dropped int
}

func newRecorder() *recorder { return &recorder{} }

// add records a finished span and returns its id (0 on a nil recorder).
func (r *recorder) add(name string, parent, req uint64, start, end time.Time) uint64 {
	id := r.reserve()
	r.addWithID(id, name, parent, req, start, end)
	return id
}

// reserve hands out an id for a span whose children finish before it does.
func (r *recorder) reserve() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	return r.nextID
}

// addWithID records a span under an id obtained from reserve.
func (r *recorder) addWithID(id uint64, name string, parent, req uint64, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= maxSpans {
		r.dropped++
		return
	}
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: start, End: end})
}

// timed runs fn inside a span and returns its duration.
func (r *recorder) timed(name string, parent, req uint64, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	r.add(name, parent, req, start, end)
	return end.Sub(start)
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its direct children cover (children clipped to the parent and
// overlapping children counted once).
func selfTimes(spans []span) map[uint64]time.Duration {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.End.Sub(s.Start) - coveredBy(s, children[s.ID])
	}
	return out
}

// coveredBy is the length of the union of the children's intervals inside
// the parent's interval.
func coveredBy(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ lo, hi time.Time }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := k.Start, k.End
		if lo.Before(parent.Start) {
			lo = parent.Start
		}
		if hi.After(parent.End) {
			hi = parent.End
		}
		if hi.After(lo) {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo.Before(ivs[j].lo) })
	var total time.Duration
	var curLo, curHi time.Time
	for i, v := range ivs {
		if i == 0 {
			curLo, curHi = v.lo, v.hi
			continue
		}
		if v.lo.After(curHi) {
			total += curHi.Sub(curLo)
			curLo, curHi = v.lo, v.hi
		} else if v.hi.After(curHi) {
			curHi = v.hi
		}
	}
	if len(ivs) > 0 {
		total += curHi.Sub(curLo)
	}
	return total
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format;
// the file loads in Perfetto and chrome://tracing.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds since the first span
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  uint64         `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the recorded spans to path in Chrome trace format and
// returns how many there were.
func (r *recorder) writeChrome(path string) (int, error) {
	spans := r.snapshot()
	var epoch time.Time
	for i, s := range spans {
		if i == 0 || s.Start.Before(epoch) {
			epoch = s.Start
		}
	}
	self := selfTimes(spans)
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X",
			Ts:  float64(s.Start.Sub(epoch)) / float64(time.Microsecond),
			Dur: float64(s.End.Sub(s.Start)) / float64(time.Microsecond),
			Pid: 1, Tid: s.Req,
			Args: map[string]any{
				"id": s.ID, "parent": s.Parent, "req": s.Req,
				"self_us": float64(self[s.ID]) / float64(time.Microsecond),
			},
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events, "droppedSpans": r.dropped}); err != nil {
		f.Close()
		return 0, err
	}
	return len(spans), f.Close()
}
