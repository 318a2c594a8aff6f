package batching

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/cascade-ml/cascade/internal/graph"
	"github.com/cascade-ml/cascade/internal/graph/datagen"
)

func genEvents(t testing.TB) []graph.Event {
	t.Helper()
	d := datagen.Wiki.Generate(datagen.Options{Scale: 0.003, Seed: 21, FeatDimOverride: 1, MinEvents: 1500})
	return d.Events
}

func assertPartition(t *testing.T, name string, batches []Batch, n int) {
	t.Helper()
	seen := make([]int, n)
	for _, b := range batches {
		if b.Indices != nil {
			for _, idx := range b.Indices {
				seen[idx]++
			}
			continue
		}
		for i := b.St; i < b.Ed; i++ {
			seen[i]++
		}
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("%s: event %d scheduled %d times", name, i, c)
		}
	}
}

func TestFixedPartition(t *testing.T) {
	for _, size := range []int{1, 7, 100, 1499, 1500, 9999} {
		f := NewFixed("TGL", 1500, size)
		batches := collectBatches(f)
		assertPartition(t, "fixed", batches, 1500)
		for i, b := range batches {
			if b.Size() != size && i != len(batches)-1 {
				t.Fatalf("size %d: non-final batch of %d", size, b.Size())
			}
		}
	}
}

func TestFixedResetRestarts(t *testing.T) {
	f := NewFixed("TGL", 10, 4)
	b1, _ := f.Next()
	f.Reset()
	b2, _ := f.Next()
	if b1.St != b2.St || b1.Ed != b2.Ed {
		t.Fatalf("reset did not restart: %+v vs %+v", b1, b2)
	}
}

func TestNeutronStreamPartitionAndIndependence(t *testing.T) {
	events := genEvents(t)
	ns := NewNeutronStream(events, 200)
	batches := collectBatches(ns)
	assertPartition(t, "neutronstream", batches, len(events))
	for bi, b := range batches {
		nodes := make(map[int32]bool)
		for _, idx := range b.Indices {
			e := events[idx]
			if nodes[e.Src] || nodes[e.Dst] {
				t.Fatalf("batch %d: dependent events share node", bi)
			}
			nodes[e.Src] = true
			nodes[e.Dst] = true
		}
	}
}

func TestNeutronStreamPreservesPerNodeOrder(t *testing.T) {
	events := genEvents(t)
	ns := NewNeutronStream(events, 300)
	lastIdx := make(map[int32]int)
	for _, b := range collectBatches(ns) {
		// Within the whole schedule, any node's events must appear in
		// ascending event-index order across batches.
		for _, idx := range b.Indices {
			e := events[idx]
			for _, node := range []int32{e.Src, e.Dst} {
				if prev, ok := lastIdx[node]; ok && idx < prev {
					t.Fatalf("node %d: event %d scheduled after %d", node, idx, prev)
				}
				lastIdx[node] = idx
			}
		}
	}
}

func TestNeutronStreamFragmentsOnHotNodes(t *testing.T) {
	// A sequence where every event touches node 0 admits exactly one event
	// per layer.
	events := make([]graph.Event, 20)
	for i := range events {
		events[i] = graph.Event{Src: 0, Dst: int32(i + 1), Time: float64(i)}
	}
	ns := NewNeutronStream(events, 10)
	batches := collectBatches(ns)
	if len(batches) != 20 {
		t.Fatalf("hot-node sequence gave %d layers, want 20", len(batches))
	}
}

func TestETCPartitionAndExpansion(t *testing.T) {
	events := genEvents(t)
	const base = 100
	etc := NewETC(events, base)
	if etc.Threshold() <= 0 {
		t.Fatalf("threshold %d", etc.Threshold())
	}
	batches := collectBatches(etc)
	assertPartition(t, "etc", batches, len(events))
	mean := MeanBatchSize(batches)
	if mean < base {
		t.Fatalf("ETC mean batch %.0f below base %d", mean, base)
	}
	// The paper reports modest expansion (900 → ~1123); on skewed graphs
	// expansion must not run away.
	if mean > 10*base {
		t.Fatalf("ETC mean batch %.0f implausibly large", mean)
	}
}

func TestETCExpandsOnDisjointEvents(t *testing.T) {
	// Fully node-disjoint events have zero information loss: ETC should
	// produce batches above base size whenever the threshold allows it.
	events := make([]graph.Event, 100)
	for i := range events {
		events[i] = graph.Event{Src: int32(2 * i), Dst: int32(2*i + 1), Time: float64(i)}
	}
	// Profile threshold over a repeated-node prefix to make it positive.
	hot := make([]graph.Event, 10)
	for i := range hot {
		hot[i] = graph.Event{Src: 0, Dst: 1, Time: float64(i)}
	}
	all := append(hot, events...)
	etc := NewETC(all, 10)
	batches := collectBatches(etc)
	if len(batches) == 0 {
		t.Fatal("no batches")
	}
	if batches[len(batches)-1].Size() == 10 && len(batches) == 11 {
		t.Fatal("ETC never expanded past base despite disjoint tail")
	}
	assertPartition(t, "etc-disjoint", batches, len(all))
}

func TestBatchEventsMaterialization(t *testing.T) {
	events := []graph.Event{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}}
	r := Batch{St: 1, Ed: 3}
	if got := r.Events(events); len(got) != 2 || got[0].Src != 1 {
		t.Fatalf("range events %+v", got)
	}
	ix := Batch{Indices: []int{0, 2}}
	if got := ix.Events(events); len(got) != 2 || got[1].Src != 2 {
		t.Fatalf("indexed events %+v", got)
	}
	if ix.Size() != 2 || r.Size() != 2 {
		t.Fatal("sizes")
	}
}

func TestMeanBatchSizeEmpty(t *testing.T) {
	if MeanBatchSize(nil) != 0 {
		t.Fatal("mean of nothing")
	}
}

// Property: for random event streams, every scheduler partitions the
// sequence exactly.
func TestSchedulersPartitionProperty(t *testing.T) {
	f := func(seed int64, nRaw uint16, baseRaw uint8) bool {
		n := int(nRaw)%500 + 50
		base := int(baseRaw)%60 + 5
		rng := rand.New(rand.NewSource(seed))
		events := make([]graph.Event, n)
		for i := range events {
			s := int32(rng.Intn(40))
			d := int32(rng.Intn(40))
			if d == s {
				d = (d + 1) % 40
			}
			events[i] = graph.Event{Src: s, Dst: d, Time: float64(i)}
		}
		for _, s := range []Scheduler{
			NewFixed("TGL", n, base),
			NewNeutronStream(events, base),
			NewETC(events, base),
		} {
			count := make([]int, n)
			s.Reset()
			for {
				b, ok := s.Next()
				if !ok {
					break
				}
				if b.Indices != nil {
					for _, idx := range b.Indices {
						count[idx]++
					}
				} else {
					for i := b.St; i < b.Ed; i++ {
						count[i]++
					}
				}
				s.OnBatchEnd(Feedback{})
			}
			for _, c := range count {
				if c != 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestShuffledFixedPartition(t *testing.T) {
	s := NewShuffledFixed("TGL", 1000, 64, 7)
	s.Reset()
	var batches []Batch
	for {
		b, ok := s.Next()
		if !ok {
			break
		}
		batches = append(batches, b)
	}
	assertPartition(t, "shuffled", batches, 1000)
	// Order must actually be shuffled (with 16 batches the identity
	// permutation is vanishingly unlikely over a few resets).
	identityEvery := true
	for trial := 0; trial < 3; trial++ {
		s.Reset()
		first, _ := s.Next()
		if first.St != 0 {
			identityEvery = false
		}
	}
	if identityEvery {
		t.Fatal("shuffle never moved the first batch")
	}
}

func TestShuffledFixedIntraBatchChronology(t *testing.T) {
	events := genEvents(t)
	s := NewShuffledFixed("TGL", len(events), 100, 3)
	s.Reset()
	for {
		b, ok := s.Next()
		if !ok {
			break
		}
		for i := b.St + 1; i < b.Ed; i++ {
			if events[i].Time < events[i-1].Time {
				t.Fatal("intra-batch order broken")
			}
		}
	}
}

// TestUniqueNodes pins the first-touch dedup the staleness ledger relies
// on: one entry per distinct endpoint, ordered by first appearance, for
// both contiguous and indexed batches.
func TestUniqueNodes(t *testing.T) {
	events := []graph.Event{
		{Src: 3, Dst: 1, Time: 1},
		{Src: 1, Dst: 2, Time: 2},
		{Src: 2, Dst: 3, Time: 3},
		{Src: 4, Dst: 4, Time: 4},
	}
	got := UniqueNodes(events, nil)
	want := []int32{3, 1, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("unique nodes %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("unique nodes %v, want %v", got, want)
		}
	}
	// Append-into-dst reuses the caller's slice.
	dst := make([]int32, 0, 8)
	if got := UniqueNodes(events[:1], dst); len(got) != 2 || &got[0] != &dst[:1][0] {
		t.Fatalf("dst reuse broken: %v", got)
	}
	b := Batch{Indices: []int{3, 0}}
	if got := b.Nodes(events); len(got) != 3 || got[0] != 4 || got[1] != 3 || got[2] != 1 {
		t.Fatalf("indexed batch nodes %v", got)
	}
}

// collectBatches runs a scheduler to exhaustion and returns every batch.
func collectBatches(s Scheduler) []Batch {
	var out []Batch
	s.Reset()
	for {
		b, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, b)
		s.OnBatchEnd(Feedback{})
	}
}
