package core

import (
	"testing"

	"github.com/cascade-ml/cascade/internal/tensor"
)

func TestSGFilterFlagsBySimilarity(t *testing.T) {
	f := NewSGFilter(4, 0.9)
	pre := tensor.FromSlice(3, 2, []float32{
		1, 0, // node 0: unchanged → sim 1
		1, 0, // node 1: rotated → sim 0
		2, 2, // node 2: scaled → sim 1
	})
	post := tensor.FromSlice(3, 2, []float32{
		1, 0,
		0, 1,
		4, 4,
	})
	f.Update([]int32{0, 1, 2}, pre, post)
	if !f.flags[0] || f.flags[1] || !f.flags[2] {
		t.Fatalf("flags: %v %v %v", f.flags[0], f.flags[1], f.flags[2])
	}
	if f.StableCount() != 2 {
		t.Fatalf("stable count %d", f.StableCount())
	}
	if r := f.StableUpdateRatio(); r < 0.66 || r > 0.67 {
		t.Fatalf("stable ratio %v, want 2/3", r)
	}
}

func TestSGFilterFlagFollowsLatestUpdate(t *testing.T) {
	f := NewSGFilter(2, 0.9)
	same := tensor.FromSlice(1, 2, []float32{1, 0})
	f.Update([]int32{0}, same, same.Clone())
	if !f.flags[0] {
		t.Fatal("identical update not stable")
	}
	// Node moves again → flag drops.
	moved := tensor.FromSlice(1, 2, []float32{0, 1})
	f.Update([]int32{0}, same, moved)
	if f.flags[0] {
		t.Fatal("destabilized node kept its flag")
	}
}

func TestSGFilterReset(t *testing.T) {
	f := NewSGFilter(2, 0.9)
	same := tensor.FromSlice(1, 2, []float32{1, 1})
	f.Update([]int32{1}, same, same.Clone())
	f.Reset()
	if f.flags[1] || f.StableUpdateRatio() != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestSGFilterThresholdSensitivity(t *testing.T) {
	// A pair with similarity ≈ 0.894 (cos of [1,0] vs [2,1]) is stable at
	// θ=0.85 but not at θ=0.95 — the Fig. 13(a) sensitivity.
	pre := tensor.FromSlice(1, 2, []float32{1, 0})
	post := tensor.FromSlice(1, 2, []float32{2, 1})
	loose := NewSGFilter(1, 0.85)
	loose.Update([]int32{0}, pre, post)
	strict := NewSGFilter(1, 0.95)
	strict.Update([]int32{0}, pre, post)
	if !loose.flags[0] {
		t.Fatal("θ=0.85 should accept sim≈0.894")
	}
	if strict.flags[0] {
		t.Fatal("θ=0.95 should reject sim≈0.894")
	}
}

func TestSGFilterZeroMemoriesAreStable(t *testing.T) {
	// An untouched zero memory has not changed: stable by convention.
	f := NewSGFilter(1, 0.9)
	z := tensor.NewMatrix(1, 3)
	f.Update([]int32{0}, z, z.Clone())
	if !f.flags[0] {
		t.Fatal("zero→zero update not stable")
	}
}

func TestSGFilterValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for theta out of range")
		}
	}()
	NewSGFilter(1, 2.0)
}

func TestSGFilterEmptyUpdateNoop(t *testing.T) {
	f := NewSGFilter(1, 0.9)
	f.Update(nil, nil, nil) // must not panic
	if f.StableUpdateRatio() != 0 {
		t.Fatal("ratio after empty update")
	}
}
