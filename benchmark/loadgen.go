package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/cascade-ml/cascade/internal/graph"
)

const (
	pairsPerScore    = 8
	eventsPerIngest  = 32
	eventsPerPrefill = 2000 // one bulk /ingest of the prefill, well under the 1 MiB body cap
	scoreBodyPool    = 256
)

// bodies holds every request body of a run, encoded once before any timing:
// the generator's own JSON work must not sit inside a measured latency.
type bodies struct {
	score   [][]byte        // scoreBodyPool bodies of pairsPerScore pairs
	pairs   [][][2]int32    // the pairs of each score body (for per-shard replays)
	prefill [][]byte        // the first prefillEvents of the held-out tail, in bulk bodies
	ingest  [][]byte        // consecutive eventsPerIngest-event cuts of the rest of the tail
	events  [][]graph.Event // the events of each ingest body
}

// encodeBodies cuts the held-out tail of the stream into /ingest bodies —
// consecutive, so they are time-ordered, in range and free of self-loops, and
// graph validation never rejects one — and draws /score pairs from the
// endpoints of random training-prefix events, which inherits the stream's
// power-law popularity.
func encodeBodies(ds *graph.Dataset, trainEvents, prefillEvents int, seed int64) *bodies {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	b := &bodies{}
	prefix := ds.Events[:trainEvents]
	for i := 0; i < scoreBodyPool; i++ {
		pairs := make([][2]int32, pairsPerScore)
		buf := []byte(`{"pairs":[`)
		for j := range pairs {
			e := prefix[rng.Intn(len(prefix))]
			pairs[j] = [2]int32{e.Src, e.Dst}
			if j > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, `{"src":`...)
			buf = strconv.AppendInt(buf, int64(e.Src), 10)
			buf = append(buf, `,"dst":`...)
			buf = strconv.AppendInt(buf, int64(e.Dst), 10)
			buf = append(buf, '}')
		}
		// time 0 scores "now": the server clamps it up to its stream time.
		buf = append(buf, `],"time":0}`...)
		b.score = append(b.score, buf)
		b.pairs = append(b.pairs, pairs)
	}
	tail := ds.Events[trainEvents:]
	for lo := 0; lo < prefillEvents; lo += eventsPerPrefill {
		hi := lo + eventsPerPrefill
		if hi > prefillEvents {
			hi = prefillEvents
		}
		b.prefill = append(b.prefill, encodeIngest(tail[lo:hi]))
	}
	tail = tail[prefillEvents:]
	for lo := 0; lo+eventsPerIngest <= len(tail); lo += eventsPerIngest {
		evs := tail[lo : lo+eventsPerIngest]
		b.ingest = append(b.ingest, encodeIngest(evs))
		b.events = append(b.events, evs)
	}
	return b
}

func encodeIngest(evs []graph.Event) []byte {
	buf := []byte(`{"events":[`)
	for j, e := range evs {
		if j > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, `{"src":`...)
		buf = strconv.AppendInt(buf, int64(e.Src), 10)
		buf = append(buf, `,"dst":`...)
		buf = strconv.AppendInt(buf, int64(e.Dst), 10)
		buf = append(buf, `,"time":`...)
		buf = strconv.AppendFloat(buf, e.Time, 'g', -1, 64)
		buf = append(buf, '}')
	}
	return append(buf, `]}`...)
}

// stream is one load-generator connection: a client whose transport keeps a
// single keep-alive connection, used by exactly one goroutine.
type stream struct {
	client *http.Client
	url    string
	kind   string // "score" or "ingest"
}

func newStream(base, kind string) *stream {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		IdleConnTimeout:     time.Minute,
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
	}
	return &stream{client: &http.Client{Transport: tr, Timeout: 30 * time.Second}, url: base + "/" + kind, kind: kind}
}

func (s *stream) close() { s.client.CloseIdleConnections() }

// post sends one pre-encoded body and checks the answer: 200, and for /score
// one finite score per pair, for /ingest every event acknowledged. Anything
// else — transport error, shed, hinted 202 — is a failure.
func (s *stream) post(body []byte) error {
	resp, err := s.client.Post(s.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", s.kind, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if s.kind == "score" {
		return checkScores(raw, pairsPerScore)
	}
	return checkIngested(raw, bytes.Count(body, []byte(`"src"`)))
}

func checkScores(raw []byte, want int) error {
	var out struct {
		Scores []float64 `json:"scores"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		return fmt.Errorf("score: bad body: %w", err)
	}
	if len(out.Scores) != want {
		return fmt.Errorf("score: %d scores for %d pairs", len(out.Scores), want)
	}
	for i, v := range out.Scores {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("score: pair %d is %v", i, v)
		}
	}
	return nil
}

func checkIngested(raw []byte, want int) error {
	var out struct {
		Ingested int `json:"ingested"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		return fmt.Errorf("ingest: bad body: %w", err)
	}
	if out.Ingested != want {
		return fmt.Errorf("ingest: %d of %d events acknowledged", out.Ingested, want)
	}
	return nil
}

// cursor deals out request bodies: /score cycles its pool, /ingest consumes
// the held-out tail once, in order, and reports exhaustion.
type cursor struct {
	pool      [][]byte
	next      int
	cycle     bool
	exhausted bool
}

func (c *cursor) take() []byte {
	if c.next >= len(c.pool) {
		if !c.cycle {
			c.exhausted = true
			return nil
		}
		c.next = 0
	}
	b := c.pool[c.next]
	c.next++
	return b
}

// tally is what one stream did during one phase.
type tally struct {
	sent, failed int
	firstErr     error
	latencyMs    []float64 // open loop: answer time − due time
	lateMs       []float64 // open loop: send time − due time
	elapsed      time.Duration
}

// goodPerSecond is the rate of good answers over the phase.
func (t tally) goodPerSecond() float64 { return float64(t.sent-t.failed) / t.elapsed.Seconds() }

func (t *tally) fail(err error) {
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

// openLoop sends n = rate·dur requests on a schedule fixed before the first
// one leaves, regardless of how long earlier ones took: request i is due at a
// point drawn uniformly from the i-th slot of length 1/rate. (On a strictly
// periodic schedule every /ingest fell due at the very instant of a /score,
// and which of the two won that race decided a whole run's percentiles.) With
// one connection a slow answer delays the sends behind it; timing each from
// its due time charges that wait to them, and lateMs says how far the
// generator itself ran behind.
func openLoop(s *stream, cur *cursor, rate float64, dur time.Duration, rng *rand.Rand, rec *recorder, reqBase uint64) tally {
	n := int(rate * dur.Seconds())
	offsets := make([]time.Duration, n)
	for i := range offsets {
		offsets[i] = time.Duration((float64(i) + rng.Float64()) / rate * float64(time.Second))
	}
	var t tally
	t.latencyMs = make([]float64, 0, n)
	t.lateMs = make([]float64, 0, n)
	start := time.Now()
	for i, off := range offsets {
		due := start.Add(off)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		body := cur.take()
		if body == nil {
			break
		}
		sendAt := time.Now()
		err := s.post(body)
		done := time.Now()
		t.sent++
		rec.add("loadgen."+s.kind, 0, reqBase+uint64(i), sendAt, done)
		if err != nil {
			t.fail(err)
			continue
		}
		t.latencyMs = append(t.latencyMs, dueLatencyMs(due, done))
		t.lateMs = append(t.lateMs, dueLatencyMs(due, sendAt))
	}
	t.elapsed = time.Since(start)
	return t
}

// closedLoop sends back-to-back — the next request leaves only when the
// previous answer is in, so a slower system receives less load — until the
// deadline or until count requests are out, whichever is given (count 0: no
// limit). /score slices are timed; /ingest slices are counted, so that every
// run has ingested exactly the same events at every point, however fast it is:
// the cost of a later /score depends on how much state the ingests built.
func closedLoop(s *stream, cur *cursor, dur time.Duration, count int, rec *recorder, reqBase uint64) tally {
	var t tally
	start := time.Now()
	deadline := start.Add(dur)
	for i := 0; (count == 0 || i < count) && time.Now().Before(deadline); i++ {
		body := cur.take()
		if body == nil {
			break
		}
		sendAt := time.Now()
		err := s.post(body)
		t.sent++
		rec.add("loadgen."+s.kind, 0, reqBase+uint64(i), sendAt, time.Now())
		if err != nil {
			t.fail(err)
		}
	}
	t.elapsed = time.Since(start)
	return t
}

// both runs the /score and /ingest streams side by side — the generator's two
// goroutines, one connection each — and waits for both.
func both(score, ingest func() tally) (sc, in tally) {
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); sc = score() }()
	go func() { defer wg.Done(); in = ingest() }()
	wg.Wait()
	return sc, in
}
