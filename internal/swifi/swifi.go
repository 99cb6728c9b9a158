// Package swifi is the mutation-based software-implemented fault injector
// of Section VII: it emulates single- and multi-bit transient faults in
// GPU processor state (ALU/FPU results, registers, scheduler control) by
// XORing randomly generated error masks into architecture state at probe
// sites the translator placed after every state-changing statement
// (Figure 12). No hardware support is required — which is the point: the
// paper built SWIFI because no fault injection tool existed for real GPU
// hardware.
package swifi

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"hauberk/internal/gpu"
	"hauberk/internal/kir"
)

// Command tells the FI library where, when and what to inject: one fault
// per experiment (Section VIII: "each experiment runs a program and
// injects only one fault").
type Command struct {
	Site     int    // FI site (variable) to corrupt
	Instance int64  // dynamic execution instance of the site (0-based)
	Mask     uint32 // XOR error mask (1..32 bits set)

	// Count is the number of consecutive instances corrupted starting at
	// Instance (0 and 1 both mean a single transient upset). A count in
	// the thousands emulates the intermittent fault of Figure 3(b):
	// e.g. 10,000 corrupted values model an 80 microsecond fault on a
	// 250 MHz FPU at 50% utilization.
	Count int64

	// Persistent re-injects at every instance from Instance onward,
	// emulating a long intermittent or permanent fault; the default
	// (false) is a transient single-event upset.
	Persistent bool
}

func (c Command) String() string {
	return fmt.Sprintf("inject site=%d instance=%d mask=%#08x persistent=%v",
		c.Site, c.Instance, c.Mask, c.Persistent)
}

// Key is the command's stable identity: the canonical "site:instance:mask"
// CLI syntax, extended with count/persistence when set. Two commands with
// equal keys describe the same experiment, so durable campaign stores use
// the key to recognise already-completed injections across process
// restarts.
func (c Command) Key() string {
	key := fmt.Sprintf("%d:%d:%08x", c.Site, c.Instance, c.Mask)
	if c.Count > 1 {
		key += fmt.Sprintf(":n%d", c.Count)
	}
	if c.Persistent {
		key += ":p"
	}
	return key
}

// ParseCommand parses the "site:instance:mask" syntax the CLI tools use;
// the mask is hexadecimal (with or without an 0x prefix).
func ParseCommand(s string) (Command, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return Command{}, fmt.Errorf("swifi: command %q: want site:instance:mask", s)
	}
	site, err := strconv.Atoi(parts[0])
	if err != nil {
		return Command{}, fmt.Errorf("swifi: bad site in %q: %w", s, err)
	}
	instance, err := strconv.ParseInt(parts[1], 10, 64)
	if err != nil {
		return Command{}, fmt.Errorf("swifi: bad instance in %q: %w", s, err)
	}
	mask, err := strconv.ParseUint(strings.TrimPrefix(parts[2], "0x"), 16, 32)
	if err != nil {
		return Command{}, fmt.Errorf("swifi: bad mask in %q: %w", s, err)
	}
	if mask == 0 {
		return Command{}, fmt.Errorf("swifi: command %q has an empty error mask", s)
	}
	return Command{Site: site, Instance: instance, Mask: uint32(mask)}, nil
}

// Injector implements the FI library: arm it with a command and pass its
// Probe to the runtime (hrt.Runtime.Inject). The zero Injector is valid
// and injects nothing.
type Injector struct {
	Cmd   Command
	Armed bool

	count    int64
	Injected bool
	// OldValue/NewValue record the corruption for post-run analysis.
	OldValue, NewValue uint32
	HW                 kir.HW
	Class              kir.DataClass
}

// Arm loads a command.
func (inj *Injector) Arm(cmd Command) {
	inj.Cmd = cmd
	inj.Armed = true
	inj.count = 0
	inj.Injected = false
}

// Probe is the FI callback invoked at every probe site (matches
// hrt.ProbeFunc). When the armed command's site and instance match, the
// target value is XORed with the error mask — for FPU registers the paper
// copies the value through an ALU register to apply the XOR; here the
// corruption is applied directly and the cycle cost of that dance is
// irrelevant because FI binaries are never used for timing.
func (inj *Injector) Probe(_ gpu.ThreadCtx, site int, v *kir.Var, hw kir.HW, val uint32) (uint32, bool) {
	if !inj.Armed || site != inj.Cmd.Site {
		return val, false
	}
	n := inj.count
	inj.count++
	if n < inj.Cmd.Instance {
		return val, false
	}
	span := inj.Cmd.Count
	if span < 1 {
		span = 1
	}
	if !inj.Cmd.Persistent && n >= inj.Cmd.Instance+span {
		return val, false
	}
	if !inj.Injected {
		inj.Injected = true
		inj.OldValue = val
		inj.NewValue = val ^ inj.Cmd.Mask
		inj.HW = hw
		inj.Class = v.Class()
	}
	return val ^ inj.Cmd.Mask, true
}

// Executions returns how many times the armed site ran.
func (inj *Injector) Executions() int64 { return inj.count }

// Preset tells an armed injector that the site already ran executions
// times, none of them at or past the target instance — the state a launch
// resumed part-way (gpu.Device.Resume) must start its hooks in.
func (inj *Injector) Preset(executions int64) { inj.count = executions }

// Spent reports that the injector will not corrupt another value: it is
// disarmed, or it is transient and the site has run past the last
// targeted instance. A persistent fault is never spent.
func (inj *Injector) Spent() bool {
	if !inj.Armed {
		return true
	}
	span := inj.Cmd.Count
	if span < 1 {
		span = 1
	}
	return !inj.Cmd.Persistent && inj.count >= inj.Cmd.Instance+span
}

// RandomMask returns a mask with exactly bits distinct bits set, drawn
// from rng. Masks model the error-bit counts of Figure 14 (1, 3, 6, 10,
// 15 corrupted bits).
func RandomMask(rng *rand.Rand, bits int) uint32 {
	if bits <= 0 || bits > 32 {
		panic(fmt.Sprintf("swifi: invalid bit count %d", bits))
	}
	var mask uint32
	for setBits(mask) < bits {
		mask |= 1 << uint(rng.Intn(32))
	}
	return mask
}

func setBits(m uint32) int {
	n := 0
	for ; m != 0; m &= m - 1 {
		n++
	}
	return n
}
