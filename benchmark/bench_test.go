package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

// benchmarkJSON is the registered contract the emitted metrics are held to.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds float64  `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name, Unit, Better string
	Bound              float64
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %v, the code's default is %v", b.RunSeconds, defaultSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads registered, %d in the code", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the code", i, b.Workloads[i].Name, w.Name)
		}
		if n := len(b.Workloads[i].Why); n == 0 || n > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.Name, n)
		}
	}
	hasSetup := false
	for _, m := range b.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end has no setup_s in s, lower is better")
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkEmitted holds one run's metrics to the declared list: exactly those
// names (metricSet already refuses a name reported twice), each finite, with
// the declared unit, and well-formed.
func checkEmitted(t *testing.T, out *outcome, want []metricDecl, nonZero bool) {
	t.Helper()
	got := map[string]metric{}
	for _, m := range out.metrics.list {
		got[m.Name] = m
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %q unit %q is not well-formed", m.Name, m.Unit)
		}
		if !isFinite(m.Value) {
			t.Errorf("metric %s is %v", m.Name, m.Value)
		}
		if nonZero && m.Value == 0 {
			t.Errorf("end-to-end metric %s is 0", m.Name)
		}
	}
	for _, d := range want {
		m, ok := got[d.Name]
		if !ok {
			t.Errorf("metric %s is declared but was not reported", d.Name)
			continue
		}
		if m.Unit != d.Unit {
			t.Errorf("metric %s reported in %q, declared in %q", d.Name, m.Unit, d.Unit)
		}
		delete(got, d.Name)
	}
	for name := range got {
		t.Errorf("metric %s was reported but is not declared", name)
	}
	for _, p := range out.problems {
		t.Errorf("check failed: %s", p)
	}
	if out.attempted < 1 || out.failed != 0 {
		t.Errorf("attempted %d, failed %d", out.attempted, out.failed)
	}
}

// TestWorkloadsReportTheDeclaredMetrics runs every workload end to end at
// about 1/20 scale. The traced run of each — spans, per-layer replays, trace
// file, and the traced-vs-untraced fingerprint comparison — is skipped under
// -short, and so are all workloads but the first.
func TestWorkloadsReportTheDeclaredMetrics(t *testing.T) {
	b := loadBenchmarkJSON(t)
	for i, w := range workloads {
		if testing.Short() && i > 0 {
			break
		}
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			opt := options{seed: 7, seconds: 0.6, scale: 0.05, setupRepeats: 1, outDir: t.TempDir()}
			out, err := runWorkload(w, opt)
			if err != nil {
				t.Fatal(err)
			}
			checkEmitted(t, out, b.EndToEnd, true)
			if testing.Short() {
				return
			}
			opt.trace = true
			out, err = runWorkload(w, opt)
			if err != nil {
				t.Fatal(err)
			}
			checkEmitted(t, out, b.PerLayer, false)
			if _, err := os.Stat(opt.outDir + "/" + w.Name + ".trace.json"); err != nil {
				t.Errorf("trace file: %v", err)
			}
		})
	}
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6}, {10, 1.4}} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if percentile(nil, 50) != 0 || median([]float64{7}) != 7 {
		t.Error("empty or single input")
	}
}

// The acceptance procedure uses Python's statistics.quantiles(values, n=4);
// these are its answers.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 3, 4, 5})
	if !near(q1, 1.5) || !near(q2, 3) || !near(q3, 4.5) {
		t.Errorf("quartiles(1..5) = %v %v %v, want 1.5 3 4.5", q1, q2, q3)
	}
	if got := relSpread([]float64{1, 2, 3, 4, 5}); !near(got, 1) {
		t.Errorf("relSpread(1..5) = %v, want (4.5-1.5)/3", got)
	}
}

func TestSecondBest(t *testing.T) {
	xs := []float64{2.0, 9.0, 1.5, 2.1, 2.2} // 9: a slowed window; 1.5: a lucky one
	if got := secondBest(xs, true); got != 2.0 {
		t.Errorf("second-lowest = %v, want 2.0", got)
	}
	if got := secondBest(xs, false); got != 2.2 {
		t.Errorf("second-highest = %v, want 2.2", got)
	}
	if secondBest([]float64{3}, true) != 3 || secondBest(nil, false) != 0 {
		t.Error("single or empty input")
	}
}

func TestDueLatencyChargesTheWait(t *testing.T) {
	t0 := time.Unix(100, 0)
	due := t0.Add(10 * time.Millisecond)
	// The request was due at +10 ms, could only be sent at +25 ms because the
	// connection was busy, and was answered at +27 ms: the caller waited 17 ms.
	if got := dueLatencyMs(due, t0.Add(27*time.Millisecond)); !near(got, 17) {
		t.Errorf("latency from due time = %v ms, want 17", got)
	}
	if got := dueLatencyMs(due, t0.Add(25*time.Millisecond)); !near(got, 15) {
		t.Errorf("lateness = %v ms, want 15", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	r := newRecorder()
	root := r.reserve()
	a := r.add("a", root, 1, at(10), at(30)) // 20 ms inside the root
	r.add("b", root, 1, at(25), at(50))      // overlaps a by 5 ms
	r.add("c", root, 1, at(90), at(120))     // sticks out of the root by 20 ms
	r.add("a1", a, 1, at(12), at(18))        // grandchild: only a's business
	r.addWithID(root, "root", 0, 1, at(0), at(100))
	self := selfTimes(r.snapshot())
	// Children cover [10,50] and [90,100] of the root: 50 ms; 50 ms are its own.
	if got := self[root]; got != 50*time.Millisecond {
		t.Errorf("root self time %v, want 50ms", got)
	}
	if got := self[a]; got != 14*time.Millisecond {
		t.Errorf("a self time %v, want 14ms", got)
	}
	var nilRec *recorder
	if nilRec.add("x", 0, 0, at(0), at(1)) != 0 || nilRec.reserve() != 0 || nilRec.snapshot() != nil {
		t.Error("a nil recorder must record nothing")
	}
}

func TestCursor(t *testing.T) {
	once := &cursor{pool: [][]byte{{1}, {2}}}
	once.take()
	once.take()
	if once.take() != nil || !once.exhausted {
		t.Error("a consumed tail must report exhaustion")
	}
	round := &cursor{pool: [][]byte{{1}, {2}}, cycle: true}
	round.take()
	round.take()
	if b := round.take(); b == nil || b[0] != 1 || round.exhausted {
		t.Error("the score pool must cycle")
	}
}
