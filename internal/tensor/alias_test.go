package tensor

import "testing"

// Regression tests for view-producing ops vs the arena: a tensor produced
// from another tensor's storage must not alias the parent's backing array,
// because releasing the parent recycles its slab through the pool and the
// next NewMatrix of the same size class would overwrite the "view" in
// place. ReshapeT, SliceColsT, GatherRowsT, and Detach must all COPY.

// poisonAfterRelease releases parent, then draws a same-class buffer from
// the pool and fills it with a sentinel. If child aliased parent's slab the
// sentinel (or the pool's zeroing) shows through child's data.
func poisonAfterRelease(parent, child *Matrix) {
	parent.Release()
	p := NewMatrix(parent.Rows, parent.Cols)
	p.Fill(999)
}

func TestReshapeDoesNotAliasReleasedSlab(t *testing.T) {
	src := Const(NewMatrix(4, 6))
	for i := range src.Value.Data {
		src.Value.Data[i] = float32(i + 1)
	}
	mid := AddT(src, Const(NewMatrix(4, 6))) // intermediate with pooled slab
	view := ReshapeT(mid, 6, 4)
	want := view.Value.Clone()
	poisonAfterRelease(mid.Value, view.Value)
	for i, v := range view.Value.Data {
		if v != want.Data[i] {
			t.Fatalf("reshape[%d] corrupted after parent release: got %v, want %v", i, v, want.Data[i])
		}
	}
}

func TestSliceColsDoesNotAliasReleasedSlab(t *testing.T) {
	src := Const(NewMatrix(5, 8))
	for i := range src.Value.Data {
		src.Value.Data[i] = float32(i + 1)
	}
	mid := AddT(src, Const(NewMatrix(5, 8)))
	view := SliceColsT(mid, 2, 6)
	want := view.Value.Clone()
	poisonAfterRelease(mid.Value, view.Value)
	for i, v := range view.Value.Data {
		if v != want.Data[i] {
			t.Fatalf("slicecols[%d] corrupted after parent release: got %v, want %v", i, v, want.Data[i])
		}
	}
}

func TestGatherRowsDoesNotAliasReleasedSlab(t *testing.T) {
	src := Const(NewMatrix(6, 7))
	for i := range src.Value.Data {
		src.Value.Data[i] = float32(i + 1)
	}
	mid := AddT(src, Const(NewMatrix(6, 7)))
	view := GatherRowsT(mid, []int{5, 0, 3, 3})
	want := view.Value.Clone()
	poisonAfterRelease(mid.Value, view.Value)
	for i, v := range view.Value.Data {
		if v != want.Data[i] {
			t.Fatalf("gather[%d] corrupted after parent release: got %v, want %v", i, v, want.Data[i])
		}
	}
}

// TestDetachCopies pins the Detach fix: the detached constant must survive
// the source tape being freed and its slab recycled.
func TestDetachCopies(t *testing.T) {
	a := Const(NewMatrix(3, 9))
	for i := range a.Value.Data {
		a.Value.Data[i] = float32(i) * 0.5
	}
	mid := AddT(a, Const(NewMatrix(3, 9)))
	d := mid.Detach()
	if d.RequiresGrad() {
		t.Fatal("Detach must not require grad")
	}
	want := d.Value.Clone()
	FreeGraph(mid)
	p := NewMatrix(3, 9)
	p.Fill(-777)
	for i, v := range d.Value.Data {
		if v != want.Data[i] {
			t.Fatalf("detach[%d] corrupted after FreeGraph: got %v, want %v", i, v, want.Data[i])
		}
	}
}
