package tensor

// TapeStats summarizes the computation graph reachable from a root tensor:
// how many kernels a GPU would launch for it, the floating-point work, and
// the row-parallelism it exposes. The device cost model (internal/device)
// converts these into simulated accelerator latency and occupancy — the
// quantities behind the paper's Figure 2 latency curve and its SM/memory
// utilization observations (§3.1).
type TapeStats struct {
	// Kernels counts computed nodes (each op is one kernel launch).
	Kernels int
	// Flops estimates forward floating-point operations.
	Flops float64
	// RowSum is the total row count across kernels (RowSum/Kernels is the
	// mean per-kernel parallelism).
	RowSum int64
	// MaxRows is the widest kernel.
	MaxRows int
}

// Add accumulates other into s.
func (s *TapeStats) Add(other TapeStats) {
	s.Kernels += other.Kernels
	s.Flops += other.Flops
	s.RowSum += other.RowSum
	if other.MaxRows > s.MaxRows {
		s.MaxRows = other.MaxRows
	}
}

// StatsOf walks the full forward tape (including constant-input subgraphs —
// those kernels run regardless of gradient requirements) and returns its
// statistics.
func StatsOf(root *Tensor) TapeStats {
	var s TapeStats
	visited := make(map[*Tensor]bool)
	stack := []*Tensor{root}
	visited[root] = true
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n.op != "var" && n.op != "const" {
			s.Kernels++
			s.Flops += nodeFlops(n)
			rows := n.Value.Rows
			s.RowSum += int64(rows)
			if rows > s.MaxRows {
				s.MaxRows = rows
			}
		}
		for _, in := range n.inputs {
			if !visited[in] {
				visited[in] = true
				stack = append(stack, in)
			}
		}
	}
	return s
}

// nodeFlops estimates the forward work of one op.
func nodeFlops(n *Tensor) float64 {
	out := float64(len(n.Value.Data))
	switch n.op {
	case "matmul":
		// 2·M·K·N multiply-adds.
		return 2 * float64(n.inputs[0].Value.Rows) * float64(n.inputs[0].Value.Cols) * float64(n.inputs[1].Value.Cols)
	case "sigmoid", "tanh", "cos", "softmax", "bcelogits":
		return 8 * out // transcendental-heavy elementwise
	case "rowdotgroups", "weightedsumgroups":
		// group·cols multiply-adds per output row element.
		return 2 * float64(len(n.inputs[0].Value.Data))
	case "linearact":
		// GEMM + bias + activation in one node.
		return 2*float64(n.inputs[0].Value.Rows)*float64(n.inputs[0].Value.Cols)*float64(n.inputs[1].Value.Cols) + 9*out
	case "rnnstep":
		// two GEMMs + fused tanh pass. inputs: (x, wx, h, wh, b).
		x, wx, h, wh := n.inputs[0], n.inputs[1], n.inputs[2], n.inputs[3]
		return 2*float64(x.Value.Rows)*float64(x.Value.Cols)*float64(wx.Value.Cols) +
			2*float64(h.Value.Rows)*float64(h.Value.Cols)*float64(wh.Value.Cols) + 10*out
	case "grustep":
		// three GEMMs + fused gate passes. inputs: (h, x, wf, uzr, ...).
		h, x, wf := n.inputs[0], n.inputs[1], n.inputs[2]
		hd := float64(n.Value.Cols)
		return 2*float64(x.Value.Rows)*float64(x.Value.Cols)*float64(wf.Value.Cols) +
			2*float64(h.Value.Rows)*float64(h.Value.Cols)*(2*hd) +
			2*float64(h.Value.Rows)*hd*hd + 24*out
	case "timeenc":
		return 2*out + 8*out // outer product + fused cos pass
	case "gatscores", "attnscores":
		return 10 * out // scores + mask + softmax per slot
	case "addrelu":
		return 2 * out
	default:
		return out
	}
}
