// Package chaos injects deterministic failures into the process-isolated
// guardian executor so its crash containment can be *proven* rather than
// assumed: workers are SIGKILLed mid-run, silenced, their response
// frames corrupted, spawns failed — and the campaign must still complete
// with byte-identical figure aggregates and no lost or duplicated store
// records.
//
// A Plan is parsed from a compact spec, usually carried in the
// HAUBERK_CHAOS environment variable so both the supervisor process and
// its worker subprocesses (which inherit the environment) derive the same
// schedule:
//
//	kill@1,corrupt@3,panic@5,stall@7,spawnfail@2
//
// Worker-side modes fire when a worker process's 0-based request sequence
// number equals the entry's index: kill (SIGKILL own process group
// mid-run), stall (never reply, so only the supervisor's request deadline
// can catch it — a workload that loops forever looks the same), corrupt
// (write a garbled response frame and exit) and panic (an uncaught Go
// panic — the process dies with a stack trace on stderr, emulating a
// workload bug). spawnfail is supervisor-side: the Nth spawn
// attempt of each supervisor errors before exec, exercising the graceful
// in-process fallback.
//
// Because sequence numbers restart at zero in every freshly spawned
// worker, an entry at index n > 0 is transient: the supervisor's retry
// lands on a new process at sequence 0 and succeeds, which is what keeps
// chaos campaigns byte-identical to clean ones. An entry at index 0 is
// persistent — every attempt of the first request dies — which is how
// tests model a deterministically panicking or hanging workload.
//
// The net family (netdrop, netstall) injects failures into the fleet
// coordinator's RPC fabric instead of worker processes: entries index the
// coordinator's process-wide RPC attempt sequence, dropping a connection
// before any bytes are sent (netdrop) or holding it open until the
// per-RPC deadline fires (netstall). Net entries never restart their
// sequence, so each is transient and the coordinator's bounded retry
// must absorb it without changing the merged figure digest.
package chaos

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// EnvVar names the environment variable FromEnv reads.
const EnvVar = "HAUBERK_CHAOS"

// Mode is one worker-side failure kind.
type Mode uint8

// Worker-side chaos modes.
const (
	// ModeNone: behave normally.
	ModeNone Mode = iota
	// ModeKill: SIGKILL the worker's own process group after reading the
	// request, before running it — a crash with no goodbye.
	ModeKill
	// ModeStall: never reply; only the supervisor's request deadline can
	// detect it.
	ModeStall
	// ModeCorrupt: write a garbled response frame, then exit 0 — the
	// protocol-corruption face of a crash.
	ModeCorrupt
	// ModePanic: panic() without recovery, so the process dies with a Go
	// stack trace on stderr (a workload bug inside the worker).
	ModePanic
	// ModeNetDrop: fail an RPC attempt before any bytes reach the wire —
	// a dropped coordinator→daemon connection. Net-family; never fires in
	// workers or supervisors, only in the fleet RPC fabric.
	ModeNetDrop
	// ModeNetStall: hold an RPC attempt open without ever answering, so
	// only the caller's per-RPC deadline can end it — a stalled TCP
	// connection. Net-family, like ModeNetDrop.
	ModeNetStall
)

func (m Mode) String() string {
	switch m {
	case ModeNone:
		return "none"
	case ModeKill:
		return "kill"
	case ModeStall:
		return "stall"
	case ModeCorrupt:
		return "corrupt"
	case ModePanic:
		return "panic"
	case ModeNetDrop:
		return "netdrop"
	case ModeNetStall:
		return "netstall"
	}
	return "mode(?)"
}

// Plan is a parsed chaos schedule. The nil *Plan is valid and injects
// nothing, so callers can thread FromEnv() through unconditionally.
type Plan struct {
	worker map[int]Mode
	spawn  map[int]bool
	net    map[int]Mode
}

// Parse builds a Plan from the "mode@seq,mode@seq,..." spec. An empty
// spec yields nil (no chaos).
func Parse(spec string) (*Plan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	p := &Plan{worker: make(map[int]Mode), spawn: make(map[int]bool), net: make(map[int]Mode)}
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, at, ok := strings.Cut(entry, "@")
		if !ok {
			return nil, fmt.Errorf("chaos: entry %q: want mode@seq", entry)
		}
		seq, err := strconv.Atoi(at)
		if err != nil || seq < 0 {
			return nil, fmt.Errorf("chaos: entry %q: bad sequence number", entry)
		}
		switch name {
		case "kill":
			p.worker[seq] = ModeKill
		case "stall":
			p.worker[seq] = ModeStall
		case "corrupt":
			p.worker[seq] = ModeCorrupt
		case "panic":
			p.worker[seq] = ModePanic
		case "spawnfail":
			p.spawn[seq] = true
		case "netdrop":
			p.net[seq] = ModeNetDrop
		case "netstall":
			p.net[seq] = ModeNetStall
		default:
			return nil, fmt.Errorf("chaos: entry %q: unknown mode %q", entry, name)
		}
	}
	return p, nil
}

// FromEnv parses HAUBERK_CHAOS; an unset or empty variable yields nil.
// A malformed spec is a fatal configuration error — chaos that silently
// does not fire would fake the very guarantees it exists to test.
func FromEnv() (*Plan, error) {
	return Parse(os.Getenv(EnvVar))
}

// Worker returns the failure mode for a worker process's seq-th request
// (0-based).
func (p *Plan) Worker(seq int) Mode {
	if p == nil {
		return ModeNone
	}
	return p.worker[seq]
}

// SpawnFails reports whether a supervisor's seq-th spawn attempt
// (0-based) should fail before exec.
func (p *Plan) SpawnFails(seq int) bool {
	return p != nil && p.spawn[seq]
}

// Net returns the failure mode for the seq-th RPC attempt (0-based,
// counted process-wide by the fleet client). Unlike worker sequence
// numbers, the RPC sequence never restarts, so every net entry is
// transient by construction: the retry that follows it carries a higher
// sequence number and goes through — which is what keeps net-chaos fleet
// runs byte-identical to undisturbed ones.
func (p *Plan) Net(seq int) Mode {
	if p == nil {
		return ModeNone
	}
	return p.net[seq]
}
