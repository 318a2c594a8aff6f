package core

import (
	"fmt"

	"github.com/cascade-ml/cascade/internal/tensor"
)

// SGFilter is the Similarity-Aware Graph Filter (§4.3): after every memory
// update it compares each touched node's memory before and after (cosine
// similarity) and flags the node stable when the similarity clears θsim.
// The TG-Diffuser skips stable nodes when reducing the batch boundary,
// breaking their temporal dependencies. Flags reset at every epoch start
// (Algorithm 1, line 10).
type SGFilter struct {
	theta float32
	flags []bool

	// Epoch counters behind Fig. 5's "ratio of stable node updates".
	updates       int64
	stableUpdates int64
}

// NewSGFilter builds a filter for numNodes nodes with similarity threshold
// theta (the paper default is 0.9, studied in Fig. 13a).
func NewSGFilter(numNodes int, theta float64) *SGFilter {
	if theta < -1 || theta > 1 {
		panic(fmt.Sprintf("core: similarity threshold %v outside [-1,1]", theta))
	}
	return &SGFilter{theta: float32(theta), flags: make([]bool, numNodes)}
}

// Reset clears all stable flags and epoch counters.
func (f *SGFilter) Reset() {
	for i := range f.flags {
		f.flags[i] = false
	}
	f.updates = 0
	f.stableUpdates = 0
}

// Update recomputes the stable flags for the nodes whose memories changed:
// pre/post row i holds node nodes[i]'s memory before/after the update.
// A node's flag follows its latest update — a stabilized node that starts
// moving again loses its flag (Fig. 8a, step 2).
func (f *SGFilter) Update(nodes []int32, pre, post *tensor.Matrix) {
	if len(nodes) == 0 {
		return
	}
	if pre.Rows != len(nodes) || post.Rows != len(nodes) {
		panic(fmt.Sprintf("core: SGFilter update %d nodes with %d/%d rows", len(nodes), pre.Rows, post.Rows))
	}
	sims := tensor.CosineSimilarityRows(pre, post)
	for i, n := range nodes {
		stable := sims[i] >= f.theta
		f.flags[n] = stable
		f.updates++
		if stable {
			f.stableUpdates++
		}
	}
}

// StableFunc returns the predicate form used by the TG-Diffuser.
func (f *SGFilter) StableFunc() func(int32) bool {
	return func(n int32) bool { return f.flags[n] }
}

// StableUpdateRatio returns the fraction of memory updates this epoch whose
// pre/post similarity cleared θsim — the quantity Fig. 5 plots per epoch.
func (f *SGFilter) StableUpdateRatio() float64 {
	if f.updates == 0 {
		return 0
	}
	return float64(f.stableUpdates) / float64(f.updates)
}

// Updates returns how many memory updates the filter has inspected this
// epoch (the denominator of Fig. 5's ratio).
func (f *SGFilter) Updates() int64 { return f.updates }

// StableUpdates returns how many of this epoch's updates cleared θsim — the
// "keep" side of the filter's keep/drop accounting (dropped = Updates −
// StableUpdates).
func (f *SGFilter) StableUpdates() int64 { return f.stableUpdates }

// StableCount returns how many nodes are currently flagged stable.
func (f *SGFilter) StableCount() int {
	c := 0
	for _, s := range f.flags {
		if s {
			c++
		}
	}
	return c
}

// MemoryBytes reports the flag array's resident size (Fig. 13c's "SF" bar).
func (f *SGFilter) MemoryBytes() int64 { return int64(len(f.flags)) }
