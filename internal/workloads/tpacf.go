package workloads

import (
	"math"

	"hauberk/internal/gpu"
	"hauberk/internal/kir"
	"hauberk/internal/stats"
)

// TPACF dimensions.
const (
	tpacfQueries = 64
	tpacfBlock   = 32
	tpacfPoints  = 128
	tpacfBins    = 64
	// tpacfScratch emulates memory concurrently rewritten by other
	// thread blocks; see setupTPACF.
	tpacfScratch = 96 * 1024
)

// TPACF is the two-point angular correlation function benchmark. Each
// thread bins the angular separation between its query point and every
// data point into a shared histogram. The histogram update uses the
// write-then-read-back retry loop the paper describes in Section IX.B: the
// thread stores the incremented count and re-reads it until the read
// returns the value it wrote (guarding against overwrites by other
// threads). When a fault corrupts the write address into memory that other
// threads keep rewriting, the read-back never matches and the kernel hangs
// — a failure mode that R-Naive and R-Scatter cannot detect but the
// guardian's watchdog can.
//
// TPACF also declares more than half of the 16 KiB per-SM shared memory,
// which is why the R-Scatter baseline cannot compile it (Section IX.A).
func TPACF() *Spec {
	return &Spec{
		Name:           "TPACF",
		Class:          ClassFP,
		Description:    "two-point angular correlation histogram",
		SharedMemBytes: 9216,
		NumDatasets:    52,
		Build:          buildTPACF,
		Setup:          setupTPACF,
		Requirement:    IntTolReq("max{1, 1%|GRi|}", 1, 0.01),
	}
}

func buildTPACF() *kir.Kernel {
	b := kir.NewBuilder("tpacf")
	qx := b.PtrParam("qx", kir.F32)
	qy := b.PtrParam("qy", kir.F32)
	qz := b.PtrParam("qz", kir.F32)
	px := b.PtrParam("px", kir.F32)
	py := b.PtrParam("py", kir.F32)
	pz := b.PtrParam("pz", kir.F32)
	hist := b.PtrParam("hist", kir.I32)
	npoints := b.Param("npoints", kir.I32)

	tid := b.Def("tid", kir.GlobalID())
	xi := b.Def("xi", kir.Ld(qx, kir.V(tid)))
	yi := b.Def("yi", kir.Ld(qy, kir.V(tid)))
	zi := b.Def("zi", kir.Ld(qz, kir.V(tid)))

	b.For("j", kir.I(0), kir.V(npoints), func(j *kir.Var) {
		dot := b.Def("dot", kir.XAdd(
			kir.XAdd(kir.XMul(kir.V(xi), kir.Ld(px, kir.V(j))),
				kir.XMul(kir.V(yi), kir.Ld(py, kir.V(j)))),
			kir.XMul(kir.V(zi), kir.Ld(pz, kir.V(j)))))
		clamped := b.Def("clamped", kir.XMin(kir.XMax(kir.V(dot), kir.F(-1)), kir.F(1)))
		binf := b.Def("binf", kir.XMul(kir.XAdd(kir.V(clamped), kir.F(1)), kir.F((tpacfBins-1)/2.0)))
		bin := b.Def("bin", kir.ToI32(kir.V(binf)))
		hptr := b.DefPtr("hptr", kir.I32, kir.XAdd(kir.V(hist), kir.V(bin)))
		done := b.Def("done", kir.I(0))
		b.While(kir.XEq(kir.V(done), kir.I(0)), func() {
			old := b.Def("old", kir.Ld(hptr, kir.I(0)))
			nv := b.Def("nv", kir.XAdd(kir.V(old), kir.I(1)))
			b.Store(hptr, kir.I(0), kir.V(nv))
			chk := b.Def("chk", kir.Ld(hptr, kir.I(0)))
			b.If(kir.XEq(kir.V(chk), kir.V(nv)), func() {
				b.Set(done, kir.I(1))
			}, nil)
		})
	})
	return b.Kernel()
}

func setupTPACF(d *gpu.Device, ds Dataset) *Instance {
	rng := stats.NewRng("tpacf", ds.Index)
	qxB := d.Alloc("qx", kir.F32, tpacfQueries)
	qyB := d.Alloc("qy", kir.F32, tpacfQueries)
	qzB := d.Alloc("qz", kir.F32, tpacfQueries)
	pxB := d.Alloc("px", kir.F32, tpacfPoints)
	pyB := d.Alloc("py", kir.F32, tpacfPoints)
	pzB := d.Alloc("pz", kir.F32, tpacfPoints)
	histB := d.Alloc("hist", kir.I32, tpacfBins)
	// Scratch emulates device memory that other (not simulated) thread
	// blocks keep rewriting: every read returns a different value. A
	// corrupted histogram address landing here never reads back the
	// written value, so the retry loop spins — the paper's TPACF hang.
	d.SetVolatile(d.Alloc("workqueue", kir.I32, tpacfScratch))

	sphere := func(b *gpu.Buffer, n int, f func(theta, phi float64) float64) {
		vals := make([]float32, n)
		for i := range vals {
			theta := rng.Float64() * math.Pi
			phi := rng.Float64() * 2 * math.Pi
			vals[i] = float32(f(theta, phi))
		}
		d.WriteF32(b, 0, vals)
	}
	// Unit vectors on the sphere (per-axis independent sampling is fine
	// for a synthetic correlation input).
	sphere(qxB, tpacfQueries, func(t, p float64) float64 { return math.Sin(t) * math.Cos(p) })
	sphere(qyB, tpacfQueries, func(t, p float64) float64 { return math.Sin(t) * math.Sin(p) })
	sphere(qzB, tpacfQueries, func(t, p float64) float64 { return math.Cos(t) })
	sphere(pxB, tpacfPoints, func(t, p float64) float64 { return math.Sin(t) * math.Cos(p) })
	sphere(pyB, tpacfPoints, func(t, p float64) float64 { return math.Sin(t) * math.Sin(p) })
	sphere(pzB, tpacfPoints, func(t, p float64) float64 { return math.Cos(t) })

	return &Instance{
		Grid:  tpacfQueries / tpacfBlock,
		Block: tpacfBlock,
		Args: []gpu.Arg{
			gpu.BufArg(qxB), gpu.BufArg(qyB), gpu.BufArg(qzB),
			gpu.BufArg(pxB), gpu.BufArg(pyB), gpu.BufArg(pzB),
			gpu.BufArg(histB), gpu.I32Arg(tpacfPoints),
		},
		Output:  histB,
		OutElem: kir.I32,
		Device:  d,
	}
}
