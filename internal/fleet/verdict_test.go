package fleet

import "testing"

func TestVerdictLadder(t *testing.T) {
	h := &nodeHealth{}
	if h.Verdict() != Healthy {
		t.Fatalf("fresh node is %s, want healthy", h.Verdict())
	}
	// One failure deprioritizes immediately.
	if v := h.observe(false); v != Degraded {
		t.Fatalf("after 1 failure: %s, want degraded", v)
	}
	// Three consecutive failures quarantine.
	h.observe(false)
	if v := h.observe(false); v != Quarantined {
		t.Fatalf("after 3 failures: %s, want quarantined", v)
	}
	// Probation: RecoverAfter successes demote one step at a time, so a
	// returning node re-earns trust instead of jumping to the front.
	h.observe(true)
	if v := h.observe(true); v != Degraded {
		t.Fatalf("after 2 probation successes: %s, want degraded", v)
	}
	h.observe(true)
	if v := h.observe(true); v != Healthy {
		t.Fatalf("after 4 probation successes: %s, want healthy", v)
	}
}

func TestVerdictFailureInterruptsRecovery(t *testing.T) {
	h := &nodeHealth{}
	for i := 0; i < 3; i++ {
		h.observe(false)
	}
	h.observe(true) // one success — not enough to demote
	if v := h.observe(false); v != Degraded {
		// The failure streak restarted at 1, so the verdict is the
		// single-failure judgment, and the recovery counter is gone.
		t.Fatalf("failure mid-recovery: %s, want degraded", v)
	}
	h.observe(false)
	if v := h.observe(false); v != Quarantined {
		t.Fatalf("renewed failure streak must re-quarantine, got %s", v)
	}
}

func TestVerdictHealthyStaysHealthy(t *testing.T) {
	h := &nodeHealth{}
	for i := 0; i < 10; i++ {
		if v := h.observe(true); v != Healthy {
			t.Fatalf("healthy node drifted to %s", v)
		}
	}
}

func TestVerdictPolicyDefaults(t *testing.T) {
	if quarantineAfter != 3 || recoverAfter != 2 {
		t.Fatalf("ladder = quarantine after %d, recover after %d; want 3 and 2", quarantineAfter, recoverAfter)
	}
	if s := Quarantined.String(); s != "quarantined" {
		t.Fatalf("Quarantined.String() = %q", s)
	}
}
