package detect

import (
	"strings"
	"testing"

	"hauberk/internal/gpu"
	"hauberk/internal/kir"
	"hauberk/internal/workloads"
)

func TestRScatterRefusesOversizedSharedMemory(t *testing.T) {
	spec := workloads.TPACF()
	_, err := RScatter(spec.Build(), spec.SharedMemBytes)
	if err == nil {
		t.Fatalf("TPACF uses more than half the shared memory and must not compile")
	}
	if !strings.Contains(err.Error(), "shared memory") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

func TestRScatterValidOnAllCompilablePrograms(t *testing.T) {
	for _, spec := range workloads.HPC() {
		if 2*spec.SharedMemBytes > SharedMemPerSM {
			continue
		}
		rs, err := RScatter(spec.Build(), spec.SharedMemBytes)
		if err != nil {
			t.Errorf("%s: %v", spec.Name, err)
			continue
		}
		if err := kir.Validate(rs.Kernel); err != nil {
			t.Errorf("%s: duplicated kernel invalid: %v", spec.Name, err)
		}
		orig := spec.Build()
		if got, want := len(rs.Kernel.Params), len(orig.Params)+len(rs.ShadowOf); got != want {
			t.Errorf("%s: params = %d, want %d", spec.Name, got, want)
		}
	}
}

// TestRScatterShadowComputationMatches runs CP under R-Scatter and checks
// that the shadow output equals the primary output in a fault-free run —
// the comparison the CPU side performs to detect errors.
func TestRScatterShadowComputationMatches(t *testing.T) {
	spec := workloads.CP()
	rs, err := RScatter(spec.Build(), spec.SharedMemBytes)
	if err != nil {
		t.Fatal(err)
	}
	d := gpu.New(gpu.DefaultConfig())
	inst := spec.Setup(d, workloads.Dataset{Index: 0})
	args := append([]gpu.Arg(nil), inst.Args...)
	var shadows []*gpu.Buffer
	for _, origIdx := range rs.ShadowOf {
		orig := inst.Args[origIdx].Buf
		sh := d.Alloc(orig.Name+"_sh", orig.Elem, orig.Len)
		d.WriteWords(sh, d.ReadWords(orig))
		shadows = append(shadows, sh)
		args = append(args, gpu.BufArg(sh))
	}
	if _, err := d.Launch(rs.Kernel, gpu.LaunchSpec{Grid: inst.Grid, Block: inst.Block, Args: args}); err != nil {
		t.Fatal(err)
	}
	// Find the shadow of the output buffer and compare.
	primary := d.ReadWords(inst.Output)
	for i, origIdx := range rs.ShadowOf {
		if inst.Args[origIdx].Buf == inst.Output {
			shadow := d.ReadWords(shadows[i])
			for j := range primary {
				if primary[j] != shadow[j] {
					t.Fatalf("shadow output differs at %d: %#x vs %#x", j, primary[j], shadow[j])
				}
			}
			return
		}
	}
	t.Fatalf("output buffer has no shadow")
}

// TestRScatterDetectsCorruption flips a bit in the primary copy of the
// input before launch; the shadow computation (running on its own copy)
// must then disagree with the primary output.
func TestRScatterDetectsCorruption(t *testing.T) {
	spec := workloads.CP()
	rs, err := RScatter(spec.Build(), spec.SharedMemBytes)
	if err != nil {
		t.Fatal(err)
	}
	d := gpu.New(gpu.DefaultConfig())
	inst := spec.Setup(d, workloads.Dataset{Index: 0})
	args := append([]gpu.Arg(nil), inst.Args...)
	var outShadow *gpu.Buffer
	for _, origIdx := range rs.ShadowOf {
		orig := inst.Args[origIdx].Buf
		sh := d.Alloc(orig.Name+"_sh", orig.Elem, orig.Len)
		d.WriteWords(sh, d.ReadWords(orig))
		if orig == inst.Output {
			outShadow = sh
		}
		args = append(args, gpu.BufArg(sh))
	}
	// Corrupt the primary atom table only (models a memory fault in one
	// copy of the data).
	atoms := d.ReadWords(inst.Args[0].Buf)
	atoms[3] ^= 1 << 30
	d.WriteWords(inst.Args[0].Buf, atoms)
	if _, err := d.Launch(rs.Kernel, gpu.LaunchSpec{Grid: inst.Grid, Block: inst.Block, Args: args}); err != nil {
		t.Fatal(err)
	}
	primary := d.ReadWords(inst.Output)
	shadow := d.ReadWords(outShadow)
	same := true
	for j := range primary {
		if primary[j] != shadow[j] {
			same = false
			break
		}
	}
	if same {
		t.Fatalf("corruption in one data copy must make the copies disagree")
	}
}

func TestRScatterRoughlyDoublesWork(t *testing.T) {
	spec := workloads.CP()
	d1 := gpu.New(gpu.DefaultConfig())
	inst1 := spec.Setup(d1, workloads.Dataset{Index: 0})
	base, err := d1.Launch(spec.Build(), gpu.LaunchSpec{Grid: inst1.Grid, Block: inst1.Block, Args: inst1.Args})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := RScatter(spec.Build(), spec.SharedMemBytes)
	if err != nil {
		t.Fatal(err)
	}
	d2 := gpu.New(gpu.DefaultConfig())
	inst2 := spec.Setup(d2, workloads.Dataset{Index: 0})
	args := append([]gpu.Arg(nil), inst2.Args...)
	for _, origIdx := range rs.ShadowOf {
		orig := inst2.Args[origIdx].Buf
		sh := d2.Alloc(orig.Name+"_sh", orig.Elem, orig.Len)
		d2.WriteWords(sh, d2.ReadWords(orig))
		args = append(args, gpu.BufArg(sh))
	}
	res, err := d2.Launch(rs.Kernel, gpu.LaunchSpec{Grid: inst2.Grid, Block: inst2.Block, Args: args})
	if err != nil {
		t.Fatal(err)
	}
	ratio := res.Cycles / base.Cycles
	if ratio < 1.6 || ratio > 2.6 {
		t.Fatalf("R-Scatter cycles ratio %.2f, want roughly 2x", ratio)
	}
}
