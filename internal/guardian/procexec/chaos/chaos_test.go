package chaos

import (
	"testing"
)

func TestParseFullSpec(t *testing.T) {
	p, err := Parse("kill@1,corrupt@3,panic@5,stall@7,spawnfail@2")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	want := map[int]Mode{1: ModeKill, 3: ModeCorrupt, 5: ModePanic, 7: ModeStall}
	for seq, mode := range want {
		if got := p.Worker(seq); got != mode {
			t.Errorf("Worker(%d) = %v, want %v", seq, got, mode)
		}
	}
	if p.Worker(0) != ModeNone || p.Worker(2) != ModeNone {
		t.Errorf("unplanned sequences must be ModeNone")
	}
	if !p.SpawnFails(2) || p.SpawnFails(0) {
		t.Errorf("SpawnFails: got (%v,%v), want (true,false)", p.SpawnFails(2), p.SpawnFails(0))
	}
	if p.Empty() {
		t.Errorf("plan with entries reports Empty")
	}
}

func TestParseEmptyYieldsNil(t *testing.T) {
	for _, spec := range []string{"", "   "} {
		p, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if p != nil {
			t.Errorf("Parse(%q) = %+v, want nil", spec, p)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{"kill", "kill@", "kill@-1", "kill@x", "explode@1", "spin@1"} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q): want error", spec)
		}
	}
}

func TestNilPlanIsInert(t *testing.T) {
	var p *Plan
	if p.Worker(0) != ModeNone || p.SpawnFails(0) || p.Net(0) != ModeNone || !p.Empty() {
		t.Errorf("nil plan must inject nothing")
	}
}

// TestParseNetFamily covers the fleet RPC fault modes: net entries live
// in their own sequence space, never leak into Worker, and a net-only
// plan is not Empty.
func TestParseNetFamily(t *testing.T) {
	p, err := Parse("netdrop@2,netstall@5")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if got := p.Net(2); got != ModeNetDrop {
		t.Errorf("Net(2) = %v, want netdrop", got)
	}
	if got := p.Net(5); got != ModeNetStall {
		t.Errorf("Net(5) = %v, want netstall", got)
	}
	if p.Net(0) != ModeNone || p.Net(3) != ModeNone {
		t.Errorf("unplanned RPC sequences must be ModeNone")
	}
	if p.Worker(2) != ModeNone || p.Worker(5) != ModeNone {
		t.Errorf("net entries must not fire as worker modes")
	}
	if p.Empty() {
		t.Errorf("net-only plan reports Empty")
	}
	mixed, err := Parse("kill@1,netdrop@1")
	if err != nil {
		t.Fatalf("Parse mixed: %v", err)
	}
	if mixed.Worker(1) != ModeKill || mixed.Net(1) != ModeNetDrop {
		t.Errorf("worker and net families must coexist at the same index")
	}
}

func TestFromEnv(t *testing.T) {
	t.Setenv(EnvVar, "kill@2")
	p, err := FromEnv()
	if err != nil {
		t.Fatalf("FromEnv: %v", err)
	}
	if p.Worker(2) != ModeKill {
		t.Errorf("FromEnv plan missing kill@2")
	}
	t.Setenv(EnvVar, "bogus")
	if _, err := FromEnv(); err == nil {
		t.Errorf("malformed %s must be a fatal configuration error", EnvVar)
	}
}

func TestModeString(t *testing.T) {
	names := map[Mode]string{
		ModeNone: "none", ModeKill: "kill", ModeStall: "stall",
		ModeCorrupt: "corrupt", ModePanic: "panic",
		ModeNetDrop: "netdrop", ModeNetStall: "netstall",
		Mode(99): "mode(?)",
	}
	for m, want := range names {
		if m.String() != want {
			t.Errorf("%d.String() = %q, want %q", m, m.String(), want)
		}
	}
}

// Empty reports whether the plan injects nothing.
func (p *Plan) Empty() bool {
	return p == nil || (len(p.worker) == 0 && len(p.spawn) == 0 && len(p.net) == 0)
}
