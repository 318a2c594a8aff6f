package obs

import (
	"bufio"
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("reqs_total") != c {
		t.Fatal("second lookup returned a different counter")
	}
	g := r.Gauge("occupancy")
	g.Set(0.25)
	g.Add(0.5)
	if got := g.Value(); got != 0.75 {
		t.Fatalf("gauge = %v, want 0.75", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency_seconds", 0.1, 1, 10)
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 0.05+0.5+0.5+5+50; got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	// Same histogram on second lookup, edges optional.
	if r.Histogram("latency_seconds") != h {
		t.Fatal("second lookup returned a different histogram")
	}
}

func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").Set(1)
	r.Histogram("z", 1, 2).Observe(1.5)
	if err := r.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("ingest_total").Add(7)
	r.Gauge("maxr").Set(12)
	h := r.Histogram("score_seconds", 0.1, 1)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(99)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE ingest_total counter\ningest_total 7\n",
		"# TYPE maxr gauge\nmaxr 12\n",
		"# TYPE score_seconds histogram\n",
		`score_seconds_bucket{le="0.1"} 1`,
		`score_seconds_bucket{le="1"} 2`,
		`score_seconds_bucket{le="+Inf"} 3`,
		"score_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Every non-comment line must be "name value".
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if len(strings.Fields(line)) != 2 {
			t.Fatalf("malformed line %q", line)
		}
	}
}

// TestRegistryConcurrent hammers every metric kind from many goroutines
// while a reader renders the exposition — the package's -race target.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, iters = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Counter("reqs_total").Inc()
				r.Gauge("depth").Add(1)
				r.Histogram("lat_seconds", LatencyEdges...).Observe(float64(i) / 1000)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if err := r.WritePrometheus(&bytes.Buffer{}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if got := r.Counter("reqs_total").Value(); got != workers*iters {
		t.Fatalf("counter = %d, want %d", got, workers*iters)
	}
	if got := r.Histogram("lat_seconds").Count(); got != workers*iters {
		t.Fatalf("histogram count = %d, want %d", got, workers*iters)
	}
}

func TestHistogramTimer(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("op_seconds", LatencyEdges...)
	stop := h.Time()
	stop()
	if h.Count() != 1 {
		t.Fatalf("timer did not observe: count = %d", h.Count())
	}
}
