package tensor

import "fmt"

// Tensor is a node in a dynamically built computation graph. Forward values
// are computed eagerly; Backward replays the tape in reverse topological
// order. This mirrors the define-by-run autograd of the PyTorch stack the
// paper's implementation uses, at the scale our models need (≤ a few thousand
// rows × a few hundred columns per op).
type Tensor struct {
	// Value holds the forward result. It is always non-nil.
	Value *Matrix
	// Grad accumulates ∂loss/∂Value during Backward. It is lazily
	// allocated for tensors that require grad.
	Grad *Matrix

	requiresGrad bool
	op           string
	inputs       []*Tensor
	backFn       func()

	// scratch marks a const leaf whose Value is tape-scoped (minted per batch,
	// e.g. an attention mask or a gathered-memory copy) and may be released by
	// FreeGraph. Ordinary Const leaves wrap caller-owned storage and are left
	// alone.
	scratch bool
	// scratchBufs holds auxiliary matrices an op retained for its backward
	// pass (e.g. LayerNorm's normalized activations); FreeGraph releases them
	// with the node.
	scratchBufs []*Matrix
	// freed makes FreeGraph idempotent per node.
	freed bool
}

// Var wraps m as a leaf tensor that participates in gradient computation
// (i.e. a trainable parameter or an input we want gradients for).
func Var(m *Matrix) *Tensor {
	return &Tensor{Value: m, requiresGrad: true, op: "var"}
}

// Const wraps m as a leaf tensor with no gradient (e.g. input features,
// detached node memories).
func Const(m *Matrix) *Tensor {
	return &Tensor{Value: m, op: "const"}
}

// ConstScratch wraps m as a constant leaf whose storage belongs to the tape:
// FreeGraph will release it along with the intermediate nodes. Use it for
// matrices minted fresh each batch (masks, time-delta columns, gathered
// memories) and never for caller-owned or long-lived storage.
func ConstScratch(m *Matrix) *Tensor {
	return &Tensor{Value: m, op: "const", scratch: true}
}

// retainScratch attaches aux to t so FreeGraph releases it with the node.
func (t *Tensor) retainScratch(aux ...*Matrix) {
	t.scratchBufs = append(t.scratchBufs, aux...)
}

// RequiresGrad reports whether gradients flow into this tensor.
func (t *Tensor) RequiresGrad() bool { return t.requiresGrad }

// Rows returns the row count of the tensor's value.
func (t *Tensor) Rows() int { return t.Value.Rows }

// Cols returns the column count of the tensor's value.
func (t *Tensor) Cols() int { return t.Value.Cols }

// Detach returns a constant copy of t's value: gradients stop here. TGNN
// trainers detach node memories between batches so back-propagation stays
// within the current batch (§2.3). The copy is deliberate — a view sharing
// t's backing array would be poisoned when FreeGraph recycles t's slab
// through the arena (see pool.go).
func (t *Tensor) Detach() *Tensor { return Const(t.Value.Clone()) }

// Item returns the single element of a 1×1 tensor.
func (t *Tensor) Item() float32 {
	if t.Value.Rows != 1 || t.Value.Cols != 1 {
		panic(fmt.Sprintf("tensor: Item on %dx%d tensor", t.Value.Rows, t.Value.Cols))
	}
	return t.Value.Data[0]
}

// ensureGrad allocates the gradient buffer on demand.
func (t *Tensor) ensureGrad() *Matrix {
	if t.Grad == nil {
		t.Grad = NewMatrix(t.Value.Rows, t.Value.Cols)
	}
	return t.Grad
}

// newNode builds a non-leaf tensor. The node requires grad iff any input
// does; backFn is only retained in that case.
func newNode(op string, value *Matrix, backFn func(), inputs ...*Tensor) *Tensor {
	req := false
	for _, in := range inputs {
		if in.requiresGrad {
			req = true
			break
		}
	}
	n := &Tensor{Value: value, op: op, inputs: inputs, requiresGrad: req}
	if req {
		n.backFn = backFn
	}
	return n
}

// Backward runs reverse-mode differentiation from t, which must be a scalar
// (1×1) tensor, typically a loss. Gradients accumulate into .Grad of every
// tensor on the tape that requires grad. Call Optimizer.ZeroGrad (or clear
// Grad fields) between steps.
func (t *Tensor) Backward() {
	if t.Value.Rows != 1 || t.Value.Cols != 1 {
		panic(fmt.Sprintf("tensor: Backward on non-scalar %dx%d tensor", t.Value.Rows, t.Value.Cols))
	}
	if !t.requiresGrad {
		return // nothing on the tape requires grad; loss of constants
	}
	order := topoSort(t)
	t.ensureGrad().Fill(1)
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		if n.backFn != nil && n.Grad != nil {
			n.backFn()
		}
	}
}

// topoSort returns the reachable requires-grad subgraph in topological order
// (inputs before outputs). Iterative DFS: tapes from large batches can be
// deep, and we must not blow the goroutine stack.
func topoSort(root *Tensor) []*Tensor {
	visited := make(map[*Tensor]bool)
	var order []*Tensor
	type frame struct {
		node *Tensor
		next int
	}
	stack := []frame{{node: root}}
	visited[root] = true
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < len(f.node.inputs) {
			child := f.node.inputs[f.next]
			f.next++
			if !visited[child] && child.requiresGrad {
				visited[child] = true
				stack = append(stack, frame{node: child})
			}
			continue
		}
		order = append(order, f.node)
		stack = stack[:len(stack)-1]
	}
	return order
}
