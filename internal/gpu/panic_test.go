package gpu

import (
	"errors"
	"strings"
	"testing"

	"hauberk/internal/kir"
)

// panicHooks is a deliberately faulty detector hook: RangeCheck panics the
// first time it fires. Without the launch containment boundary this would
// kill the whole campaign process.
type panicHooks struct {
	NopHooks
	fired bool
}

func (h *panicHooks) RangeCheck(tc ThreadCtx, det int, val float64) {
	if !h.fired {
		h.fired = true
		panic("deliberate hook panic")
	}
}

// rangeCheckKernel is a minimal kernel that fires the RangeCheck hook once
// per thread and stores a word, so a follow-up clean launch has an
// observable output.
func rangeCheckKernel() *kir.Kernel {
	b := kir.NewBuilder("panic-case")
	out := b.PtrParam("out", kir.F32)
	acc := b.Def("acc", kir.ToF32(kir.GlobalID()))
	cnt := b.Def("cnt", kir.I(1))
	b.Emit(kir.RangeCheck{Detector: 0, Accum: acc, Count: cnt})
	b.Store(out, kir.GlobalID(), kir.V(acc))
	return b.Kernel()
}

func TestLaunchPanickingHookSerial(t *testing.T) {
	k := rangeCheckKernel()
	d := New(DefaultConfig())
	buf := d.Alloc("out", kir.F32, 64)
	spec := LaunchSpec{Grid: 2, Block: 8, Args: []Arg{BufArg(buf)}, Hooks: &panicHooks{}}

	res, err := d.Launch(k, spec)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("panicking hook: got (%v, %v), want *PanicError", res, err)
	}
	if !strings.Contains(pe.Error(), "deliberate hook panic") {
		t.Errorf("PanicError %q does not carry the panic value", pe.Error())
	}
	if pe.Stack == "" {
		t.Errorf("PanicError is missing the stack trace")
	}

	// Containment means the device (and the process) is still usable: the
	// same kernel with a well-behaved hook runs clean afterwards.
	res, err = d.Launch(k, LaunchSpec{Grid: 2, Block: 8, Args: []Arg{BufArg(buf)}, Hooks: &NopHooks{}})
	if err != nil {
		t.Fatalf("device unusable after contained panic: %v", err)
	}
	if res.Threads != 16 {
		t.Errorf("clean relaunch threads = %d, want 16", res.Threads)
	}
}
