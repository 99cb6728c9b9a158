// Package gpu is a deterministic simulator of a GPGPU device. It stands in
// for the NVIDIA Tesla S1070 cluster of the paper's experiments: kernels in
// the kir IR are interpreted thread by thread over a flat device-memory
// arena, with a cycle cost model that reproduces the *relative* execution
// times the paper's performance figures depend on.
//
// Two properties of real GPUs that drive the paper's findings are modelled
// explicitly:
//
//  1. No fine-grained memory protection (Section II.A cause (a)): device
//     memory is one flat arena; an access outside a buffer but inside the
//     arena silently corrupts other data, and only accesses beyond the
//     arena crash the kernel. In ModeCPU the simulator instead enforces
//     page-granularity permissions, which converts most wild accesses into
//     crashes — reproducing the GPU-vs-CPU SDC gap of Figure 1.
//  2. Register pressure (Section V.A): when a kernel's peak live-variable
//     count exceeds the per-thread register file, register accesses are
//     charged a spill penalty, which is what makes naive duplication and
//     parts of HAUBERK-NL expensive on register-hungry kernels.
package gpu

import (
	"fmt"
	"math"
	"slices"

	"hauberk/internal/kir"
)

// PageWords is the allocation granularity of the device arena in 32-bit
// words (4 KiB pages).
const PageWords = 1024

// VirtualWords is the size of the device's flat address space in words
// (256 Mi words = 1 GiB, matching the evaluated 4-GPU Tesla S1070's 4 GiB
// per-GPU space scaled to our word granularity). In ModeGPU any access
// below this bound is *silent*: reads beyond the physical arena return
// residue garbage and writes there vanish into unallocated space, exactly
// the no-protection behaviour that inflates GPU SDC rates (Section II.A).
// Only addresses at or above VirtualWords fault the kernel.
const VirtualWords = 1 << 26

// Mode selects the protection semantics of the simulated processor.
type Mode uint8

// Execution modes.
const (
	// ModeGPU models a GPU: flat arena, no per-buffer protection.
	ModeGPU Mode = iota
	// ModeCPU models a CPU process: page-granularity access checks
	// (accesses to unmapped guard pages crash, as a memory-protection
	// unit would make them).
	ModeCPU
)

// Config describes the simulated device.
type Config struct {
	Mode          Mode
	SMs           int // streaming multiprocessors
	RegsPerThread int // register file per thread, in 32-bit registers
	// StepBudget bounds the number of statements one thread may execute;
	// beyond it the launch reports a HangError. It is the backstop of the
	// guardian's execution-time watchdog: a launch with a clean baseline
	// carries the watchdog's own, much tighter bound in
	// LaunchSpec.StepBudget, and this one is left to the launches that are
	// the baseline.
	StepBudget int
}

// DefaultConfig returns a GT200-like device: 30 SMs, 32-wide warps, 20
// registers per thread (a typical per-thread allocation at full
// occupancy).
func DefaultConfig() Config {
	return Config{
		Mode:          ModeGPU,
		SMs:           30,
		RegsPerThread: 20,
		StepBudget:    4 << 20,
	}
}

// Buffer is one device-memory allocation.
type Buffer struct {
	Name string
	Elem kir.Type
	Off  uint32 // word offset of first element in the arena
	Len  int    // length in elements (words)
}

// Device is a simulated GPU (or, in ModeCPU, a protected host process).
// A Device is not safe for concurrent launches; experiments that
// parallelize create one Device per worker.
type Device struct {
	cfg     Config
	arena   []uint32
	mapped  []bool // per page
	buffers []*Buffer
	nextOff uint32

	// Disabled marks the device as taken out of service by the recovery
	// engine (Section VI(ii)(c)); launches fail until re-enabled.
	Disabled bool

	// fault is an optional memory-fault overlay used to emulate
	// intermittent memory faults (Section II, Figure 3); see SetMemFault.
	// It is opaque — the closure may carry state of its own — so a device
	// with one installed cannot be traced or resumed (see Traceable).
	fault func(addr uint32, val uint32) uint32

	// volLo/volHi bound the volatile region (see SetVolatile); volTick
	// counts the loads it has served. Unlike fault this is device-owned
	// state: Snapshot, Restore and the golden trace all cover it.
	volLo, volHi uint32
	volTick      uint32

	// overlay is what the engine applies to every loaded word: the volatile
	// model, then the fault closure; nil when neither is installed.
	overlay func(addr uint32, val uint32) uint32

	// resume is Resume's scratch, kept across calls so a pooled device
	// re-runs injections without allocating.
	resume resumeScratch
}

// New creates a device with the given configuration.
func New(cfg Config) *Device {
	if cfg.SMs <= 0 || cfg.RegsPerThread <= 0 {
		panic("gpu: invalid configuration")
	}
	return &Device{cfg: cfg}
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Alloc reserves a buffer of n elem-typed elements. Allocations are page
// aligned with one unmapped guard page between buffers, so that in ModeCPU
// a strayed access is caught at page granularity.
func (d *Device) Alloc(name string, elem kir.Type, n int) *Buffer {
	if n < 0 {
		panic("gpu: negative allocation")
	}
	pages := (n + PageWords - 1) / PageWords
	if pages == 0 {
		pages = 1
	}
	// One guard page before every buffer.
	start := d.nextOff + PageWords
	need := int(start) + pages*PageWords
	for len(d.arena) < need {
		d.arena = append(d.arena, make([]uint32, need-len(d.arena))...)
	}
	for len(d.mapped) < need/PageWords {
		d.mapped = append(d.mapped, false)
	}
	for p := int(start) / PageWords; p < int(start)/PageWords+pages; p++ {
		d.mapped[p] = true
	}
	b := &Buffer{Name: name, Elem: elem, Off: start, Len: n}
	d.buffers = append(d.buffers, b)
	d.nextOff = start + uint32(pages*PageWords)
	return b
}

// Layout is a device's memory map — configuration, buffers, mapped pages
// and volatile region — without the arena's contents.
type Layout struct {
	cfg          Config
	words        int
	mapped       []bool
	buffers      []*Buffer
	nextOff      uint32
	volLo, volHi uint32
}

// Layout returns d's memory map. A SetMemFault closure is not part of it.
func (d *Device) Layout() *Layout {
	return &Layout{
		cfg: d.cfg, words: len(d.arena), mapped: slices.Clone(d.mapped), buffers: slices.Clone(d.buffers),
		nextOff: d.nextOff, volLo: d.volLo, volHi: d.volHi,
	}
}

// New returns a device laid out by l, with a zeroed arena and buffers of
// its own.
func (l *Layout) New() *Device {
	d := New(l.cfg)
	d.arena = make([]uint32, l.words)
	d.mapped = slices.Clone(l.mapped)
	d.buffers = make([]*Buffer, len(l.buffers))
	for i, b := range l.buffers {
		c := *b
		d.buffers[i] = &c
	}
	d.nextOff = l.nextOff
	d.volLo, d.volHi = l.volLo, l.volHi
	d.setOverlay()
	return d
}

// Moved returns the buffer of d, a device l.New made, that stands where
// the layout's buffer b does.
func (l *Layout) Moved(d *Device, b *Buffer) *Buffer {
	return d.buffers[slices.Index(l.buffers, b)]
}

// Buffers returns all allocations (for memory-footprint audits, Fig. 2).
func (d *Device) Buffers() []*Buffer { return d.buffers }

// ArenaWords returns the current arena size in words.
func (d *Device) ArenaWords() int { return len(d.arena) }

// SetMemFault installs an overlay applied to every loaded word; nil clears
// it. It emulates intermittent faults in a memory module or bus
// (Section II.A, Figure 3b).
func (d *Device) SetMemFault(f func(addr, val uint32) uint32) {
	d.fault = f
	d.setOverlay()
}

// SetVolatile marks a buffer as memory that agents outside the simulation
// (thread blocks of other kernels, a host work queue) keep rewriting: every
// load from it returns the stored word plus a term that changes with each
// such load, so no read-back ever matches what was written. The tick that
// drives the term is device state, not closure state, which is what lets a
// device with a volatile region be snapshotted, traced and resumed.
func (d *Device) SetVolatile(b *Buffer) {
	d.volLo, d.volHi = b.Off, b.Off+uint32(b.Len)
	d.setOverlay()
}

func (d *Device) volatileLoad(addr, val uint32) uint32 {
	if addr >= d.volLo && addr < d.volHi {
		d.volTick++
		return val + d.volTick*2654435761
	}
	return val
}

func (d *Device) setOverlay() {
	switch f := d.fault; {
	case d.volHi == 0:
		d.overlay = f
	case f == nil:
		d.overlay = d.volatileLoad
	default:
		d.overlay = func(addr, val uint32) uint32 { return f(addr, d.volatileLoad(addr, val)) }
	}
}

// checkAccess validates an address for the configured mode. It returns a
// non-empty reason when the access must crash the kernel.
func (d *Device) checkAccess(addr uint32) string {
	if d.cfg.Mode == ModeCPU {
		if int(addr) >= len(d.arena) {
			return fmt.Sprintf("segmentation fault: address %#x outside process memory", addr)
		}
		if page := int(addr) / PageWords; !d.mapped[page] {
			return fmt.Sprintf("segmentation fault: address %#x in unmapped page", addr)
		}
		return ""
	}
	if addr >= VirtualWords {
		return fmt.Sprintf("address %#x outside device address space", addr)
	}
	return ""
}

// --- host <-> device transfer helpers ------------------------------------

// WriteF32 copies float data into a buffer starting at element off.
func (d *Device) WriteF32(b *Buffer, off int, src []float32) {
	for i, v := range src {
		d.arena[int(b.Off)+off+i] = math.Float32bits(v)
	}
}

// WriteI32 copies integer data into a buffer starting at element off.
func (d *Device) WriteI32(b *Buffer, off int, src []int32) {
	for i, v := range src {
		d.arena[int(b.Off)+off+i] = uint32(v)
	}
}

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

// ReadWords returns the raw words of a buffer.
func (d *Device) ReadWords(b *Buffer) []uint32 {
	out := make([]uint32, b.Len)
	copy(out, d.arena[b.Off:int(b.Off)+b.Len])
	return out
}

// WriteWords overwrites the raw words of a buffer.
func (d *Device) WriteWords(b *Buffer, src []uint32) {
	copy(d.arena[b.Off:int(b.Off)+b.Len], src)
}

// FlipBits XORs a mask into one element of a buffer. Used by the memory
// fault-injection experiments.
func (d *Device) FlipBits(b *Buffer, idx int, mask uint32) {
	d.arena[int(b.Off)+idx] ^= mask
}

// Zero clears a buffer.
func (d *Device) Zero(b *Buffer) {
	for i := 0; i < b.Len; i++ {
		d.arena[int(b.Off)+i] = 0
	}
}

// Snapshot is a checkpoint of a device's mutable state: the arena words
// and the volatile-region tick.
type Snapshot struct {
	Words []uint32
	tick  uint32
}

// Snapshot captures the full arena contents (checkpoint support).
func (d *Device) Snapshot() Snapshot {
	out := make([]uint32, len(d.arena))
	copy(out, d.arena)
	return Snapshot{Words: out, tick: d.volTick}
}

// Restore reinstates a snapshot taken on this device.
func (d *Device) Restore(snap Snapshot) {
	if len(snap.Words) != len(d.arena) {
		panic("gpu: snapshot size mismatch")
	}
	copy(d.arena, snap.Words)
	d.volTick = snap.tick
}
