package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/cascade-ml/cascade/internal/graph"
	"github.com/cascade-ml/cascade/internal/graph/datagen"
)

// paperExample reproduces the event sequence of Figures 7–9:
// index: 0=e12 1=e17 2=e18 3=e19 4=eab 5=eac 6=ead 7=eas 8=e13 9=e15 10=e16
// 11=e34, with letter nodes mapped a=10 b=11 c=12 d=13 s=14.
func paperExample() ([]graph.Event, int) {
	edges := [][2]int32{
		{1, 2}, {1, 7}, {1, 8}, {1, 9}, {10, 11}, {10, 12},
		{10, 13}, {10, 14}, {1, 3}, {1, 5}, {1, 6}, {3, 4},
	}
	events := make([]graph.Event, len(edges))
	for i, e := range edges {
		events[i] = graph.Event{Src: e[0], Dst: e[1], Time: float64(i), FeatIdx: -1}
	}
	return events, 15
}

func TestDependencyTableMatchesPaperExample(t *testing.T) {
	events, n := paperExample()
	table := BuildDependencyTable(events, n, 1)
	want := map[int32][]int32{
		1:  {0, 1, 2, 3, 8, 9, 10, 11},
		2:  {0, 1, 2, 3, 8, 9, 10},
		3:  {8, 9, 10, 11},
		4:  {11},
		5:  {9, 10},
		6:  {10},
		7:  {1, 2, 3, 8, 9, 10},
		8:  {2, 3, 8, 9, 10},
		9:  {3, 8, 9, 10},
		10: {4, 5, 6, 7},
		11: {4, 5, 6, 7},
		12: {5, 6, 7},
		13: {6, 7},
		14: {7},
	}
	for node, entry := range want {
		if got := table.Entry(node); !reflect.DeepEqual(got, entry) {
			t.Errorf("node %d entry = %v, want %v", node, got, entry)
		}
	}
	if e := table.Entry(0); len(e) != 0 {
		t.Errorf("isolated node has entry %v", e)
	}
}

func TestDependencyTableParallelMatchesSerial(t *testing.T) {
	d := datagen.Wiki.Generate(datagen.Options{Scale: 0.003, Seed: 31, FeatDimOverride: 1, MinEvents: 2000})
	serial := BuildDependencyTable(d.Events, d.NumNodes, 1)
	par := BuildDependencyTable(d.Events, d.NumNodes, 8)
	for n := range serial.Entries {
		if !reflect.DeepEqual(serial.Entries[n], par.Entries[n]) {
			t.Fatalf("node %d: serial %v != parallel %v", n, serial.Entries[n], par.Entries[n])
		}
	}
}

// Invariants of Algorithm 2, property-checked on random streams:
//  1. entries are sorted and duplicate-free;
//  2. every incident event of n appears in n's entry;
//  3. every non-incident entry of n is a future event of some neighbor,
//     connected before that event;
//  4. no entry references an event outside the table's range.
func TestDependencyTableInvariants(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		nEvents := int(nRaw)%400 + 20
		rng := rand.New(rand.NewSource(seed))
		const nodes = 25
		events := make([]graph.Event, nEvents)
		for i := range events {
			s := int32(rng.Intn(nodes))
			d := int32(rng.Intn(nodes))
			if d == s {
				d = (d + 1) % nodes
			}
			events[i] = graph.Event{Src: s, Dst: d, Time: float64(i)}
		}
		table := BuildDependencyTable(events, nodes, 4)

		incident := make([][]int32, nodes)
		for i, e := range events {
			incident[e.Src] = append(incident[e.Src], int32(i))
			incident[e.Dst] = append(incident[e.Dst], int32(i))
		}
		for n := int32(0); n < nodes; n++ {
			entry := table.Entry(n)
			inEntry := make(map[int32]bool, len(entry))
			for i, v := range entry {
				if i > 0 && entry[i-1] >= v {
					return false // not sorted/unique
				}
				if int(v) >= nEvents || v < 0 {
					return false // out of range
				}
				inEntry[v] = true
			}
			for _, idx := range incident[n] {
				if !inEntry[idx] {
					return false // missing incident event
				}
			}
			// Closure check: non-incident entries must be justified.
			isIncident := make(map[int32]bool, len(incident[n]))
			for _, idx := range incident[n] {
				isIncident[idx] = true
			}
			for _, v := range entry {
				if isIncident[v] {
					continue
				}
				e := events[v]
				ok := false
				// Some incident event of n connecting to e.Src or e.Dst
				// must precede v.
				for _, idx := range incident[n] {
					if idx >= v {
						break
					}
					ie := events[idx]
					q := ie.Dst
					if ie.Dst == n {
						q = ie.Src
					}
					if q == e.Src || q == e.Dst {
						ok = true
						break
					}
				}
				if !ok {
					return false // unjustified dependency
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCountInRange(t *testing.T) {
	events, n := paperExample()
	table := BuildDependencyTable(events, n, 1)
	// Node 1 entry {0,1,2,3,8,9,10,11}: range [2, 10) covers {2,3,8,9}.
	if c := table.CountInRange(1, 2, 10); c != 4 {
		t.Fatalf("count = %d, want 4", c)
	}
	if c := table.CountInRange(0, 0, 12); c != 0 {
		t.Fatalf("isolated count = %d", c)
	}
	if c := table.CountInRange(14, 0, 12); c != 1 {
		t.Fatalf("node s count = %d", c)
	}
}

func TestChunkedTableBoundsDependencies(t *testing.T) {
	events, n := paperExample()
	ct := NewChunkedTable(events, n, 1, 6, false)
	if ct.NumChunks() != 2 {
		t.Fatalf("chunks = %d", ct.NumChunks())
	}
	t0 := ct.Get(0)
	// Within chunk 0 (events 0–5), node 1's entry stops at the boundary:
	// own {0,1,2,3}; no within-chunk neighbor futures beyond.
	if got := t0.Entry(1); !reflect.DeepEqual(got, []int32{0, 1, 2, 3}) {
		t.Fatalf("chunk0 node1 entry %v", got)
	}
	t1 := ct.Get(1)
	// Chunk 1 (events 6–11): node 1's within-chunk events {8,9,10} plus
	// neighbor 3's future {11}.
	if got := t1.Entry(1); !reflect.DeepEqual(got, []int32{8, 9, 10, 11}) {
		t.Fatalf("chunk1 node1 entry %v", got)
	}
	lo, hi := ct.ChunkBounds(1)
	if lo != 6 || hi != 12 {
		t.Fatalf("bounds [%d,%d)", lo, hi)
	}
	if ct.MemoryBytes() <= 0 {
		t.Fatal("memory accounting")
	}
}

func TestChunkedPipelinePrefetches(t *testing.T) {
	d := datagen.Wiki.Generate(datagen.Options{Scale: 0.002, Seed: 3, FeatDimOverride: 1, MinEvents: 1000})
	ct := NewChunkedTable(d.Events, d.NumNodes, 2, 300, true)
	// Sequential access must work and produce tables identical to
	// non-pipelined building.
	plain := NewChunkedTable(d.Events, d.NumNodes, 2, 300, false)
	for i := 0; i < ct.NumChunks(); i++ {
		a, b := ct.Get(i), plain.Get(i)
		for n := range a.Entries {
			if !reflect.DeepEqual(a.Entries[n], b.Entries[n]) {
				t.Fatalf("chunk %d node %d mismatch", i, n)
			}
		}
	}
}

func TestBuildTableRangeValidation(t *testing.T) {
	events, n := paperExample()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bad range")
		}
	}()
	buildTableRange(events, n, 1, 5, 2)
}
