package gpu

import "hauberk/internal/kir"

// The cost model assigns cycle costs to IR operations. The absolute values
// are loosely calibrated to GT200-class throughput ratios (integer ALU 1,
// FP MAD ~4, SFU transcendentals ~16, uncoalesced global memory ~60,
// shared/cached ~8); what the experiments depend on is the *ratios*, which
// determine the relative overhead of inserted detector code exactly as the
// real machine determines it for the paper.
const (
	costIntOp     float64 = 1  // integer ALU operation
	costFPOp      float64 = 4  // FP add/mul/div
	costSpecialFn float64 = 16 // sqrt, rsqrt, exp, log, sin, cos (SFU)
	costMem       float64 = 60 // global memory access (load or store)
	costBranch    float64 = 2  // conditional evaluation / divergence bookkeeping
	costLoopOver  float64 = 2  // per-iteration loop overhead (compare + increment)
	costSync      float64 = 8  // __syncthreads barrier
	costConvert   float64 = 2  // type conversion
	costRegMove   float64 = 1  // register move / bitcast

	// Library-call costs for the Hauberk FT intrinsics. The paper notes
	// the FP range checker is comparatively expensive because each FP
	// detector checks up to three value ranges (Section IX.A).
	costRangeCheckFP  float64 = 90
	costRangeCheckInt float64 = 30
	costEqualCheck    float64 = 8
	costSetSDC        float64 = 4

	// costSpillPenalty is the extra memory cost charged per register
	// access when the kernel's peak live-variable count exceeds the
	// per-thread register file, scaled by the spilled fraction (Section
	// V.A's register-pressure discussion).
	costSpillPenalty float64 = 6
)

// warpSize is the accounting width of the modelled GPU: a warp costs its
// slowest thread.
const warpSize = 32

// binCost returns the cost of one binary operation on the given type.
func binCost(op kir.BinOp, t kir.Type) float64 {
	if t == kir.F32 && !op.Comparison() {
		return costFPOp
	}
	return costIntOp
}

func callCost(fn kir.Builtin) float64 {
	switch fn {
	case kir.Min, kir.Max, kir.Abs, kir.Floor:
		return costFPOp
	default:
		return costSpecialFn
	}
}
