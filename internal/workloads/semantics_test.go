package workloads

import (
	"math"
	"testing"

	"hauberk/internal/gpu"
	"hauberk/internal/kir"
)

// Semantic sanity checks: each benchmark's output must look like the
// computation it claims to implement, not just "some deterministic bits".

func TestCPSemantics(t *testing.T) {
	_, inst, out := runBaseline(t, CP(), Dataset{Index: 0})
	vals := make([]float32, len(out))
	finite := true
	for i, w := range out {
		vals[i] = math.Float32frombits(w)
		if math.IsNaN(float64(vals[i])) || math.IsInf(float64(vals[i]), 0) {
			finite = false
		}
	}
	if !finite {
		t.Fatalf("potential field has non-finite entries")
	}
	// Potentials must vary across the lattice (atoms are not uniform).
	minV, maxV := vals[0], vals[0]
	for _, v := range vals {
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	if maxV-minV < 1e-3 {
		t.Fatalf("potential field is flat: [%g, %g]", minV, maxV)
	}
	_ = inst
}

func TestMRIQSemantics(t *testing.T) {
	// With the DC-dominant k-space sample, qr must cluster near the DC
	// magnitude and qi near zero-mean.
	_, _, out := runBaseline(t, MRIQ(), Dataset{Index: 0})
	n := len(out) / 2
	var qrSum float64
	for i := 0; i < n; i++ {
		qrSum += float64(math.Float32frombits(out[i]))
	}
	if mean := qrSum / float64(n); mean < 20 {
		t.Fatalf("mean qr = %f; the DC component should dominate (~40)", mean)
	}
}

func TestPNSSemantics(t *testing.T) {
	// The time-weighted marking is nonnegative and bounded by what the
	// token population allows.
	_, _, out := runBaseline(t, PNS(), Dataset{Index: 0})
	for i, w := range out {
		v := int32(w)
		if v < 0 {
			t.Fatalf("thread %d: negative marking statistic %d", i, v)
		}
		if v > pnsSteps*1000 {
			t.Fatalf("thread %d: marking %d exceeds any feasible token flow", i, v)
		}
	}
}

func TestSADSemantics(t *testing.T) {
	// Each best SAD must equal the true minimum over the search
	// positions, recomputed on the host.
	d := gpu.New(gpu.DefaultConfig())
	inst := SAD().Setup(d, Dataset{Index: 0})
	if _, err := d.Launch(SAD().Build(), gpu.LaunchSpec{Grid: inst.Grid, Block: inst.Block, Args: inst.Args}); err != nil {
		t.Fatal(err)
	}
	out := inst.ReadOutput()
	cur := d.ReadWords(inst.Args[0].Buf)
	ref := d.ReadWords(inst.Args[1].Buf)
	for tid := 0; tid < 8; tid++ { // spot-check the first macroblocks
		base := tid * sadPixels
		best := int32(1 << 20)
		for pos := 0; pos < sadPositions; pos++ {
			acc := int32(0)
			for px := 0; px < sadPixels; px++ {
				dd := int32(cur[base+px]) - int32(ref[base+pos*4+px])
				if dd < 0 {
					dd = -dd
				}
				acc += dd
			}
			if acc < best {
				best = acc
			}
		}
		if got := int32(out[tid]); got != best {
			t.Fatalf("thread %d: kernel best SAD %d != host best %d", tid, got, best)
		}
	}
}

func TestTPACFSemantics(t *testing.T) {
	// The histogram must hold exactly queries*points counts.
	_, _, out := runBaseline(t, TPACF(), Dataset{Index: 0})
	var total int64
	for _, w := range out {
		total += int64(int32(w))
	}
	if want := int64(tpacfQueries * tpacfPoints); total != want {
		t.Fatalf("histogram holds %d counts, want %d", total, want)
	}
}

func TestRPESSemantics(t *testing.T) {
	// Integrals are finite and positive-weighted.
	_, _, out := runBaseline(t, RPES(), Dataset{Index: 0})
	for i, w := range out {
		v := float64(math.Float32frombits(w))
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("integral %d is non-finite", i)
		}
	}
}

func TestGraphicsFramesInRange(t *testing.T) {
	for _, spec := range Graphics() {
		_, _, out := runBaseline(t, spec, Dataset{Index: 0})
		for i, w := range out {
			v := float64(math.Float32frombits(w))
			if math.IsNaN(v) || math.Abs(v) > 10 {
				t.Fatalf("%s: pixel %d out of visual range: %g", spec.Name, i, v)
			}
		}
	}
}

func TestCPUModeGoldenMatchesGPUMode(t *testing.T) {
	// The CPU reference program computes the same result in both modes;
	// only protection semantics differ.
	spec := CPURef()
	dGPU := gpu.New(gpu.DefaultConfig())
	iGPU := spec.Setup(dGPU, Dataset{Index: 0})
	if _, err := dGPU.Launch(spec.Build(), gpu.LaunchSpec{Grid: iGPU.Grid, Block: iGPU.Block, Args: iGPU.Args}); err != nil {
		t.Fatal(err)
	}
	cfg := gpu.DefaultConfig()
	cfg.Mode = gpu.ModeCPU
	dCPU := gpu.New(cfg)
	iCPU := spec.Setup(dCPU, Dataset{Index: 0})
	if _, err := dCPU.Launch(spec.Build(), gpu.LaunchSpec{Grid: iCPU.Grid, Block: iCPU.Block, Args: iCPU.Args}); err != nil {
		t.Fatal(err)
	}
	a, b := iGPU.ReadOutput(), iCPU.ReadOutput()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("mode changes semantics at %d", i)
		}
	}
}

func TestKernelsUseOnlyDeclaredBuffers(t *testing.T) {
	// A fault-free run must never touch the guard pages: run every HPC
	// program in CPU (page-checked) mode; any stray access would crash.
	for _, spec := range HPC() {
		if spec.Name == "TPACF" {
			// TPACF's retry loop reads back through hist only; still
			// covered, but it installs a device overlay either way.
			continue
		}
		cfg := gpu.DefaultConfig()
		cfg.Mode = gpu.ModeCPU
		d := gpu.New(cfg)
		inst := spec.Setup(d, Dataset{Index: 0})
		if _, err := d.Launch(spec.Build(), gpu.LaunchSpec{Grid: inst.Grid, Block: inst.Block, Args: inst.Args}); err != nil {
			t.Errorf("%s: fault-free run violates page protection: %v", spec.Name, err)
		}
	}
}

func TestClassStrings(t *testing.T) {
	if ClassFP.String() != "hpc-fp" || ClassGraphics.String() != "graphics" {
		t.Fatalf("class names wrong")
	}
	if kir.ClassOf(kir.F32) != kir.ClassFloat {
		t.Fatalf("kir class mapping")
	}
}
