package main

import (
	"strings"
	"testing"
)

// TestRecoveryScenarios runs the example end to end: the three Figure 11
// diagnoses, and the back-off daemon doubling Tbackoff on a failed retest
// and re-enabling the device once its fault clears.
func TestRecoveryScenarios(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"diagnosis: transient-fault after 2 executions\n",
		"diagnosis: false-alarm after 2 executions;",
		"after learning, re-run diagnosis: clean\n",
		"diagnosis: device-fault after 3 executions; disabled devices: [0]; Tbackoff 2\n",
		"tick 2: BIST still fails; Tbackoff 4\n",
		"tick 6: fault cleared, BIST passes; device 0 re-enabled, 2 devices in service\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
