package layout

import "scalesim/internal/config"

// Transform remaps an operand-local word address into the order the data
// is actually stored in the scratchpad. A nil Transform means row-major
// (storage order equals logical order).
type Transform func(local int64) int64

// Transpose returns a transform that stores a rows×cols row-major operand
// column-major, making column walks contiguous.
func Transpose(rows, cols int) Transform {
	r64, c64 := int64(rows), int64(cols)
	return func(local int64) int64 {
		return (local%c64)*r64 + local/c64
	}
}

// NaturalTransforms returns the storage transforms a layout-aware mapper
// would choose for each operand of the GEMM under the dataflow: any operand
// the dataflow walks column-wise is stored transposed so its per-cycle
// access groups are contiguous. A nil entry keeps row-major. With
// ApplyTransform and Observe it forms the per-cycle replay oracle; it has
// no production caller.
//
//	OS: the ifmap is streamed column-by-column (A[·, t]) → transpose;
//	    the filter streams row-by-row and the outputs drain row-major.
//	WS: every access group is already row-contiguous.
//	IS: the filter streams column-by-column (B[·, n]) and the stationary
//	    ifmap fills column-wise; outputs drain column-by-column.
func NaturalTransforms(df config.Dataflow, m, n, k int) (ifmap, filter, ofmap Transform) {
	ti, tf, to := NaturalTransposed(df)
	if ti {
		ifmap = Transpose(m, k)
	}
	if tf {
		filter = Transpose(k, n)
	}
	if to {
		ofmap = Transpose(m, n)
	}
	return ifmap, filter, ofmap
}

// NaturalTransposed reports, per operand, whether the dataflow's natural
// storage order is the transpose of row-major. It is the single source of
// truth behind NaturalTransforms and the closed-form AnalyzeSchedule path.
func NaturalTransposed(df config.Dataflow) (ifmap, filter, ofmap bool) {
	switch df {
	case config.OutputStationary:
		return true, false, false
	case config.InputStationary:
		return true, true, true
	default:
		return false, false, false
	}
}

// ApplyTransform rebases the absolute addresses to operand-local, applies
// the transform and appends the results to dst. Oracle only: production
// code linearizes whole patterns with PatternRun.
func ApplyTransform(dst []int64, addrs []int64, base int64, t Transform) []int64 {
	for _, a := range addrs {
		local := a - base
		if t != nil {
			local = t(local)
		}
		dst = append(dst, local)
	}
	return dst
}
