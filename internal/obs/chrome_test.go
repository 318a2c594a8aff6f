package obs

import (
	"bytes"
	"encoding/json"
	"testing"
)

// decodeChrome parses a finished Chrome trace file into events.
func decodeChrome(t *testing.T, buf []byte) []map[string]any {
	t.Helper()
	var events []map[string]any
	if err := json.Unmarshal(buf, &events); err != nil {
		t.Fatalf("trace is not a JSON array: %v\n%s", err, buf)
	}
	return events
}

func TestChromeTraceAllLanes(t *testing.T) {
	var buf bytes.Buffer
	cw := NewChromeTrace(&buf)
	tr := NewTracer(TracerOptions{Chrome: cw})
	root := tr.Start("batch", PhaseOther)
	c := root.Child("embed", PhaseEmbed)
	c.SetInt("size", 200)
	c.End()
	root.End()
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}

	events := decodeChrome(t, buf.Bytes())
	lanes := map[string]bool{}
	var complete []map[string]any
	for _, ev := range events {
		switch ev["ph"] {
		case "M":
			if ev["name"] == "thread_name" {
				lanes[ev["args"].(map[string]any)["name"].(string)] = true
			}
		case "X":
			complete = append(complete, ev)
		}
	}
	// Every pipeline phase lane must be declared even in a run that only
	// touched two of them.
	for i := 0; i < NumPhases; i++ {
		if !lanes[Phase(i).String()] {
			t.Fatalf("missing lane %q; have %v", Phase(i).String(), lanes)
		}
	}
	if len(complete) != 2 {
		t.Fatalf("complete events = %d, want 2", len(complete))
	}
	var embed map[string]any
	for _, ev := range complete {
		if ev["name"] == "embed" {
			embed = ev
		}
	}
	if embed == nil {
		t.Fatalf("no embed event in %v", complete)
	}
	if got := embed["tid"].(float64); int(got) != int(PhaseEmbed) {
		t.Fatalf("embed tid = %v, want %d", got, PhaseEmbed)
	}
	args := embed["args"].(map[string]any)
	if args["size"].(float64) != 200 {
		t.Fatalf("embed args = %v", args)
	}
	if args["parent_id"] == nil {
		t.Fatal("child event lost its parent link")
	}
}

func TestChromeTraceCloseIdempotent(t *testing.T) {
	var buf bytes.Buffer
	cw := NewChromeTrace(&buf)
	tr := NewTracer(TracerOptions{Chrome: cw})
	tr.Start("a", PhaseOther).End()
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	n := buf.Len()
	// Spans ended after Close must be dropped, not corrupt the array.
	tr.Start("late", PhaseOther).End()
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != n {
		t.Fatal("writes after Close")
	}
	decodeChrome(t, buf.Bytes())
}
