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
	return d.runProgram(p.(*program), k, spec)
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
