package datagen

import (
	"math"
	"sort"
	"testing"

	"github.com/cascade-ml/cascade/internal/graph"
)

func TestGenerateValidAndDeterministic(t *testing.T) {
	opt := Options{Scale: 0.01, Seed: 42}
	d1 := Wiki.Generate(opt)
	d2 := Wiki.Generate(opt)
	if err := d1.Validate(); err != nil {
		t.Fatalf("invalid dataset: %v", err)
	}
	if d1.NumEvents() != d2.NumEvents() {
		t.Fatal("non-deterministic event count")
	}
	for i := range d1.Events {
		if d1.Events[i] != d2.Events[i] {
			t.Fatalf("non-deterministic at event %d", i)
		}
	}
}

func TestGenerateSeedChangesStream(t *testing.T) {
	a := Wiki.Generate(Options{Scale: 0.01, Seed: 1})
	b := Wiki.Generate(Options{Scale: 0.01, Seed: 2})
	same := true
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestProfilesMatchTable2Shape(t *testing.T) {
	// At scale 1 the profile counts are exactly Table 2's.
	cases := []struct {
		p       Profile
		nodes   int
		events  int
		featDim int
	}{
		{Wiki, 9227, 157474, 172},
		{Reddit, 11000, 672447, 172},
		{Mooc, 7047, 411749, 128},
		{WikiTalk, 2394385, 5021410, 32},
		{SxFull, 2601977, 63497050, 32},
		{Gdelt, 16682, 191290882, 186},
		{Mag, 121751665, 1297748926, 32},
	}
	for _, c := range cases {
		if c.p.Nodes != c.nodes || c.p.Events != c.events || c.p.FeatDim != c.featDim {
			t.Fatalf("%s profile mismatch with Table 2: %+v", c.p.Name, c.p)
		}
	}
}

func TestScaledAverageDegreePreserved(t *testing.T) {
	// Average degree 2E/N must be roughly preserved under scaling, because
	// both N and E scale linearly. Allow slack for flooring and isolated
	// nodes.
	for _, name := range []string{"WIKI", "REDDIT", "MOOC"} {
		p := ByName[name]
		d := p.Generate(Options{Scale: 0.02, Seed: 7})
		want := 2 * float64(p.Events) / float64(p.Nodes)
		got := d.ComputeStats().AvgDegree
		if got < want*0.5 || got > want*2.5 {
			t.Fatalf("%s: scaled avg degree %.1f vs full-scale %.1f", name, got, want)
		}
	}
}

func TestSparsityOrderingMatchesPaper(t *testing.T) {
	// The paper orders the moderate datasets by average degree:
	// WIKI-TALK (≈2.5) < WIKI (≈17.5) < SX-FULL (≈24.4) < MOOC (≈58.4)
	// ≲ REDDIT (≈61.1). The generated datasets must preserve the ordering
	// between the clearly separated ones.
	deg := func(p Profile) float64 {
		return p.Generate(Options{Scale: 0.004, Seed: 3, MinNodes: 256, MinEvents: 2048}).ComputeStats().AvgDegree
	}
	wikiTalk := deg(WikiTalk)
	wiki := deg(Wiki)
	reddit := deg(Reddit)
	if !(wikiTalk < wiki && wiki < reddit) {
		t.Fatalf("sparsity ordering broken: WIKI-TALK %.1f, WIKI %.1f, REDDIT %.1f", wikiTalk, wiki, reddit)
	}
}

func TestDegreeSkewProducesHotNodes(t *testing.T) {
	d := Wiki.Generate(Options{Scale: 0.02, Seed: 9})
	s := d.ComputeStats()
	// Hot nodes must be far above average (Fig. 3's long tail)…
	if float64(s.MaxDegree) < 5*s.AvgDegree {
		t.Fatalf("no hot nodes: max %d avg %.1f", s.MaxDegree, s.AvgDegree)
	}
}

func TestBipartiteSplit(t *testing.T) {
	d := Wiki.Generate(Options{Scale: 0.01, Seed: 5})
	// In a bipartite profile, sources and destinations never overlap:
	srcMax, dstMin := int32(-1), int32(1<<30)
	for _, e := range d.Events {
		if e.Src > srcMax {
			srcMax = e.Src
		}
		if e.Dst < dstMin {
			dstMin = e.Dst
		}
	}
	if srcMax >= dstMin {
		t.Fatalf("bipartite halves overlap: srcMax %d dstMin %d", srcMax, dstMin)
	}
}

func TestNonBipartiteAvoidsSelfLoops(t *testing.T) {
	d := WikiTalk.Generate(Options{Scale: 0.0005, Seed: 11, MinEvents: 5000})
	for i, e := range d.Events {
		if e.Src == e.Dst {
			t.Fatalf("self loop at %d", i)
		}
	}
}

func TestFeatDimOverrideAndFloors(t *testing.T) {
	d := Reddit.Generate(Options{Scale: 1e-9, Seed: 1, FeatDimOverride: 8})
	if d.EdgeFeatDim != 8 {
		t.Fatalf("feat dim %d", d.EdgeFeatDim)
	}
	if d.NumNodes < 64 || d.NumEvents() < 256 {
		t.Fatalf("floors not applied: %d nodes %d events", d.NumNodes, d.NumEvents())
	}
}

func TestZipfSamplerDistribution(t *testing.T) {
	// The most popular rank must receive clearly more mass than the median
	// rank under skew 1.0.
	p := Profile{Name: "T", Nodes: 100, Events: 20000, SrcSkew: 1.0, DstSkew: 1.0, RepeatProb: 0}
	d := p.Generate(Options{Scale: 1, Seed: 13})
	counts := make([]int, d.NumNodes)
	for _, e := range d.Events {
		counts[e.Src]++
	}
	max, sum := 0, 0
	for _, c := range counts {
		if c > max {
			max = c
		}
		sum += c
	}
	mean := float64(sum) / float64(len(counts))
	if float64(max) < 4*mean {
		t.Fatalf("zipf skew too flat: max %d mean %.1f", max, mean)
	}
}

func TestTimestampsStrictlyIncreasing(t *testing.T) {
	d := Mooc.Generate(Options{Scale: 0.01, Seed: 17})
	for i := 1; i < len(d.Events); i++ {
		if !(d.Events[i].Time > d.Events[i-1].Time) {
			t.Fatalf("timestamps not strictly increasing at %d", i)
		}
	}
	if math.IsNaN(d.Events[len(d.Events)-1].Time) {
		t.Fatal("NaN timestamp")
	}
}

func TestRepeatAffinityCalibration(t *testing.T) {
	// The generator's RepeatProb must be visible in the measured
	// recent-repeat ratio: REDDIT (0.65) clearly above WIKI-TALK (0.3).
	hi := Reddit.Generate(Options{Scale: 0.004, Seed: 23, MinEvents: 3000})
	lo := WikiTalk.Generate(Options{Scale: 0.0006, Seed: 23, MinEvents: 3000})
	rHi := recentRepeatRatio(hi)
	rLo := recentRepeatRatio(lo)
	if rHi <= rLo {
		t.Fatalf("repeat affinity not calibrated: REDDIT %.2f vs WIKI-TALK %.2f", rHi, rLo)
	}
}

func TestDegreeGiniPositive(t *testing.T) {
	// Zipf-skewed generation must produce a clearly unequal degree
	// distribution.
	d := Wiki.Generate(Options{Scale: 0.01, Seed: 29})
	if g := degreeGini(d); g < 0.3 {
		t.Fatalf("degree Gini %.2f too uniform for a Zipf stream", g)
	}
}

// recentRepeatRatio is the fraction of events repeating one of the
// source's last 4 destinations: the generator's repeat-affinity knob
// measured back from the data.
func recentRepeatRatio(d *graph.Dataset) float64 {
	if len(d.Events) == 0 {
		return 0
	}
	recent := make(map[int32][]int32)
	recents := 0
	for i, e := range d.Events {
		r := recent[e.Src]
		for _, dst := range r {
			if dst == e.Dst {
				recents++
				break
			}
		}
		if len(r) < 4 {
			recent[e.Src] = append(r, e.Dst)
		} else {
			r[i%4] = e.Dst
		}
	}
	return float64(recents) / float64(len(d.Events))
}

// degreeGini is the Gini coefficient of the non-zero per-node total
// degrees: 0 is uniform, towards 1 is all events on one node.
func degreeGini(d *graph.Dataset) float64 {
	deg := make([]int, d.NumNodes)
	for _, e := range d.Events {
		deg[e.Src]++
		deg[e.Dst]++
	}
	nz := deg[:0]
	for _, c := range deg {
		if c > 0 {
			nz = append(nz, c)
		}
	}
	sort.Ints(nz)
	n := len(nz)
	var cum, weighted float64
	for i, c := range nz {
		cum += float64(c)
		weighted += float64(c) * float64(i+1)
	}
	if cum == 0 {
		return 0
	}
	return (2*weighted)/(float64(n)*cum) - float64(n+1)/float64(n)
}

func TestMoocLabelsCalibration(t *testing.T) {
	d := Mooc.Generate(Options{Scale: 0.003, Seed: 37, MinEvents: 2000})
	if d.Labels == nil {
		t.Fatal("MOOC profile must generate labels")
	}
	pos := 0
	for _, l := range d.Labels {
		pos += int(l)
	}
	frac := float64(pos) / float64(len(d.Labels))
	// With 25% risky destinations at 0.8 positive rate plus 5% noise, the
	// positive fraction lands in a broad but clearly non-degenerate band.
	if frac < 0.05 || frac > 0.6 {
		t.Fatalf("label positive fraction %.2f out of band", frac)
	}
	if wiki := Wiki.Generate(Options{Scale: 0.002, Seed: 37}); wiki.Labels != nil {
		t.Fatal("WIKI profile should not generate labels")
	}
}
