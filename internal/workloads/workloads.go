// Package workloads reimplements the benchmark programs of the paper's
// evaluation as kir kernels with synthetic datasets:
//
//   - the seven Parboil HPC programs (Section VIII): CP, MRI-FHD, MRI-Q,
//     PNS, RPES, SAD, TPACF — six floating-point programs and one integer
//     program family (PNS and SAD are integer kernels);
//   - two 3D-graphics programs from a GPU SDK: ray-trace and ocean-flow
//     (Section II, Figures 1 and 3);
//   - a control-flow-heavy CPU reference program for Figure 1's CPU rows.
//
// Program structure follows the paper's description of each benchmark:
// RPES spends ~75% of its time in non-loop code, CP's loop accumulates
// into a self-accumulating FP variable, TPACF performs the
// write-then-read-back retry loop whose address corruption hangs the
// kernel (Section IX.B), SAD tolerates no output error, and the MRI
// programs carry enough live state to be register-pressure sensitive.
package workloads

import (
	"math"

	"hauberk/internal/gpu"
	"hauberk/internal/kir"
)

// Class categorizes a program for the sensitivity study.
type Class uint8

// Program classes.
const (
	ClassFP       Class = iota // HPC floating-point program
	ClassInt                   // HPC integer program
	ClassGraphics              // 3D graphics program
	ClassCPU                   // CPU reference program
)

func (c Class) String() string {
	switch c {
	case ClassFP:
		return "hpc-fp"
	case ClassInt:
		return "hpc-int"
	case ClassGraphics:
		return "graphics"
	case ClassCPU:
		return "cpu"
	}
	return "class(?)"
}

// Dataset selects one input instance; Index 0 is the canonical evaluation
// input, higher indices are the training/test datasets of the false
// positive study (Figure 16 uses 52 per program).
type Dataset struct {
	Index int
}

// Instance is a program instantiated on a device: allocated/filled buffers
// and the launch geometry.
type Instance struct {
	Grid, Block int
	Args        []gpu.Arg
	// Output is the buffer whose contents define program correctness.
	Output  *gpu.Buffer
	OutElem kir.Type
	// Device the instance was set up on.
	Device *gpu.Device
}

// ReadOutput returns the raw output words.
func (in *Instance) ReadOutput() []uint32 { return in.Device.ReadWords(in.Output) }

// OutputView returns the output words in place (Device.Words): valid
// until the device runs or is set up again.
func (in *Instance) OutputView() []uint32 { return in.Device.Words(in.Output) }

// Requirement is a program's output-correctness requirement: it reports
// whether the actual output satisfies the requirement against the golden
// run (Section VIII's per-program formulas).
type Requirement struct {
	// Name is the formula as the paper states it.
	Name  string
	Check func(golden, actual []uint32) bool
}

// Spec describes one benchmark program.
type Spec struct {
	Name        string
	Class       Class
	Description string
	// SharedMemBytes declares the kernel's shared-memory footprint; the
	// R-Scatter baseline refuses programs using more than half of the
	// 16 KiB per-SM shared memory (Section IX.A).
	SharedMemBytes int
	// NumDatasets is how many distinct datasets the generator supports.
	NumDatasets int
	Build       func() *kir.Kernel
	Setup       func(d *gpu.Device, ds Dataset) *Instance
	Requirement Requirement
}

// HPC returns the seven evaluation programs in the paper's figure order.
func HPC() []*Spec {
	return []*Spec{CP(), MRIFHD(), MRIQ(), PNS(), RPES(), SAD(), TPACF()}
}

// Graphics returns the two 3D-graphics programs.
func Graphics() []*Spec {
	return []*Spec{OceanFlow(), RayTrace()}
}

// ByName finds a program among all registered specs.
func ByName(name string) *Spec {
	for _, s := range append(append(HPC(), Graphics()...), CPURef()) {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// --- requirement constructors --------------------------------------------

// f64 widens an output word holding a float32 to float64.
func f64(w uint32) float64 { return float64(math.Float32frombits(w)) }

// FPRelReq violates when |actual-golden| > max(absFloor, relFrac*|golden|)
// for any element.
func FPRelReq(name string, absFloor, relFrac float64) Requirement {
	return Requirement{
		Name: name,
		Check: func(golden, actual []uint32) bool {
			if len(golden) != len(actual) {
				return false
			}
			for i := range golden {
				g, a := f64(golden[i]), f64(actual[i])
				tol := relFrac * math.Abs(g)
				if tol < absFloor {
					tol = absFloor
				}
				diff := math.Abs(a - g)
				if diff > tol || math.IsNaN(diff) {
					return false
				}
			}
			return true
		},
	}
}

// MRIReq violates when |actual-golden| > max(globalFrac*max|golden|,
// relFrac*|golden|) — the MRI-Q style requirement.
func MRIReq(name string, globalFrac, relFrac float64) Requirement {
	return Requirement{
		Name: name,
		Check: func(golden, actual []uint32) bool {
			if len(golden) != len(actual) {
				return false
			}
			maxG := 0.0
			for _, w := range golden {
				if av := math.Abs(f64(w)); av > maxG {
					maxG = av
				}
			}
			floor := globalFrac * maxG
			for i := range golden {
				g, a := f64(golden[i]), f64(actual[i])
				tol := relFrac * math.Abs(g)
				if tol < floor {
					tol = floor
				}
				diff := math.Abs(a - g)
				if diff > tol || math.IsNaN(diff) {
					return false
				}
			}
			return true
		},
	}
}

// ExactReq violates on any difference (SAD: integer program that does not
// allow value errors in the output).
func ExactReq() Requirement {
	return Requirement{
		Name: "exact match",
		Check: func(golden, actual []uint32) bool {
			if len(golden) != len(actual) {
				return false
			}
			for i := range golden {
				if golden[i] != actual[i] {
					return false
				}
			}
			return true
		},
	}
}

// IntTolReq violates when |actual-golden| > max(absTol, relFrac*|golden|)
// on integer outputs.
func IntTolReq(name string, absTol, relFrac float64) Requirement {
	return Requirement{
		Name: name,
		Check: func(golden, actual []uint32) bool {
			if len(golden) != len(actual) {
				return false
			}
			for i := range golden {
				g := float64(int32(golden[i]))
				a := float64(int32(actual[i]))
				tol := relFrac * math.Abs(g)
				if tol < absTol {
					tol = absTol
				}
				if math.Abs(a-g) > tol {
					return false
				}
			}
			return true
		},
	}
}

// FrameReq is the graphics requirement: corruption is an SDC only when it
// is user-noticeable — at least minPixels pixels deviating by more than
// frac of full scale (a single corrupted pixel in one frame goes unnoticed
// at 30 fps; a 10,000-value stripe does not; Section II.A, Figure 3).
func FrameReq(minPixels int, frac float64) Requirement {
	return Requirement{
		Name: "user-noticeable frame corruption",
		Check: func(golden, actual []uint32) bool {
			if len(golden) != len(actual) {
				return false
			}
			bad := 0
			for i := range golden {
				diff := math.Abs(f64(actual[i]) - f64(golden[i]))
				if diff > frac || math.IsNaN(diff) {
					bad++
				}
			}
			return bad < minPixels
		},
	}
}
