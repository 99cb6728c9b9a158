package fleet

// Verdict is the coordinator's judgment of one node, folded from
// /readyz probes, RPC outcomes and campaign results. It decides
// dispatch: Healthy nodes are preferred, Degraded nodes are used only
// when no healthy node is free, Quarantined nodes get no work at all —
// their in-flight shards are salvaged and re-dispatched — until
// probation probes walk them back down the ladder.
type Verdict int

const (
	// Healthy nodes take new shards first.
	Healthy Verdict = iota
	// Degraded nodes recently failed a probe or RPC (or dropped a
	// shard); they are deprioritized but still dispatchable.
	Degraded
	// Quarantined nodes failed quarantineAfter consecutive times; they
	// are drained and skipped. Probation: successful probes demote the
	// verdict one step per recoverAfter successes, so a recovered node
	// re-earns trust (Quarantined -> Degraded -> Healthy) instead of
	// snapping straight back to the front of the roster.
	Quarantined
)

func (v Verdict) String() string {
	switch v {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Quarantined:
		return "quarantined"
	}
	return "verdict(?)"
}

// The health fold's ladder: quarantineAfter consecutive failures
// quarantine a node, and recoverAfter consecutive successes demote its
// verdict one step toward Healthy.
const (
	quarantineAfter = 3
	recoverAfter    = 2
)

// nodeHealth folds a stream of per-node observations (probe results,
// RPC outcomes, campaign dispositions) into a Verdict. Not safe for
// concurrent use; the coordinator's event loop owns it. The zero value
// is a Healthy node.
type nodeHealth struct {
	verdict Verdict
	fails   int
	oks     int
}

// observe records one outcome and returns the updated verdict. Any
// failure interrupts recovery (the success counter resets); any
// success resets the failure streak. A single failure degrades — one
// dropped RPC is enough to deprioritize a node behind its clean peers —
// and quarantineAfter consecutive failures quarantine.
func (h *nodeHealth) observe(ok bool) Verdict {
	if ok {
		h.fails = 0
		h.oks++
		if h.verdict != Healthy && h.oks >= recoverAfter {
			h.verdict--
			h.oks = 0
		}
		return h.verdict
	}
	h.oks = 0
	h.fails++
	if h.fails >= quarantineAfter {
		h.verdict = Quarantined
	} else {
		h.verdict = Degraded
	}
	return h.verdict
}

// Verdict returns the current verdict without observing anything.
func (h *nodeHealth) Verdict() Verdict { return h.verdict }
