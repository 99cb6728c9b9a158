package gpu

import (
	"math"
	"runtime/debug"
	"sync"

	"hauberk/internal/kir"
)

// engine selects what executes a launch in the differential tests. Only
// engineFused is production code; the unfused stream and the tree walker
// are the oracles it is held to.
type engine uint8

const (
	engineFused   engine = iota // the cached, fused program: Device.Launch
	engineUnfused               // the same compile without the fusion pass
	engineTree                  // the recursive tree walker (oracle_test.go)
)

func (e engine) String() string {
	return [...]string{"bytecode", "unfused", "tree"}[e]
}

// unfusedPrograms caches unfused compiles the way programFor caches fused
// ones, so a timed loop over launchOn(engineUnfused, ...) measures the
// dispatch loop and not the compiler.
var unfusedPrograms sync.Map // progKey -> *program

// launchOn runs one launch on engine e. engineFused is Device.Launch
// itself; the oracles share its validation and panic containment, and the
// unfused stream runs through the production dispatch loop.
func (d *Device) launchOn(e engine, k *kir.Kernel, spec LaunchSpec) (res *Result, err error) {
	if e == engineFused {
		return d.Launch(k, spec)
	}
	defer func() {
		if r := recover(); r != nil {
			res, err = &Result{}, &PanicError{Value: r, Stack: string(debug.Stack())}
		}
	}()
	if lerr := d.checkLaunch(k, spec); lerr != nil {
		return &Result{}, lerr
	}
	if e == engineTree {
		return d.launchTree(k, spec)
	}
	key := progKey{k: k, regs: d.cfg.RegsPerThread}
	p, ok := unfusedPrograms.Load(key)
	if !ok {
		p, _ = unfusedPrograms.LoadOrStore(key, compileProgram(k, d.cfg.RegsPerThread, false, nil))
	}
	x := d.newTracedLaunch(k, &spec, p.(*program))
	return x.runAll()
}

// Engine and LaunchOn expose the engine choice to package gpu_test, whose
// workload differentials and engine benchmark need the workloads package
// (which imports gpu).
type Engine = engine

// Engines lists every engine, production first.
var Engines = []Engine{engineFused, engineUnfused, engineTree}

const (
	EngineFused   = engineFused
	EngineUnfused = engineUnfused
	EngineTree    = engineTree
)

// LaunchOn is launchOn for package gpu_test.
func (d *Device) LaunchOn(e Engine, k *kir.Kernel, spec LaunchSpec) (*Result, error) {
	return d.launchOn(e, k, spec)
}

// CheckpointEvery makes every Record until restore runs take a checkpoint
// every steps statements (1: before every statement but a thread's first)
// and keep them all, however much they hold.
func CheckpointEvery(steps int) (restore func()) {
	every, bytes := checkpointEvery, checkpointBytes
	checkpointEvery, checkpointBytes = steps, math.MaxInt
	return func() { checkpointEvery, checkpointBytes = every, bytes }
}

// StatementCounts returns how many statements start in the program Record
// compiles for k and in the cached one every other launch runs.
func StatementCounts(k *kir.Kernel, cfg Config) (record, cached int) {
	count := func(p *program) (n int) {
		for i := range p.insts {
			if p.insts[i].flags&fStep != 0 {
				n++
			}
		}
		return n
	}
	cp, _ := programFor(k, cfg)
	return count(compileProgram(k, cfg.RegsPerThread, true, kir.AnalyzeDelta(k))), count(cp)
}

// The helpers below are test-only: no shipped binary reads a device back
// by element type, restores a Snapshot, or resets the program cache.

// U32Arg passes an unsigned scalar.
func U32Arg(v uint32) Arg { return Arg{Scalar: v} }

// ReadF32 copies n floats out of a buffer starting at element off.
func (d *Device) ReadF32(b *Buffer, off, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(d.arena[int(b.Off)+off+i])
	}
	return out
}

// ReadI32 copies n integers out of a buffer starting at element off.
func (d *Device) ReadI32(b *Buffer, off, n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(d.arena[int(b.Off)+off+i])
	}
	return out
}

// Restore reinstates a snapshot taken on this device.
func (d *Device) Restore(snap Snapshot) {
	if len(snap.Words) != len(d.arena) {
		panic("gpu: snapshot size mismatch")
	}
	copy(d.arena, snap.Words)
	d.volTick = snap.tick
}

// resetProgramCache clears the cache and its counters.
func resetProgramCache() {
	progCache.Lock()
	progCache.m = make(map[progKey]*program)
	progCache.Unlock()
	progCacheHits.Store(0)
	progCacheMisses.Store(0)
}

// Total sums every hook invocation.
func (c *HookCounts) Total() int64 {
	return c.Probe + c.CountExec + c.RangeCheck + c.EqualCheck + c.ProfileSample + c.SetSDC
}
