package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// WriteTimeline renders a decoded event journal as a human-readable
// detect → diagnose → recover timeline: one line per event with the
// offset from the first event, followed by a summary of executions,
// alarms and the guardian's final diagnosis. It is the consumer behind
// `hauberk-report -trace`.
func WriteTimeline(w io.Writer, events []DecodedEvent) {
	if len(events) == 0 {
		fmt.Fprintln(w, "(empty journal)")
		return
	}
	t0 := events[0].Wall

	var (
		executions int
		alarms     int
		widened    int
		disabled   []string
		diagnosis  string
	)
	for _, e := range events {
		fmt.Fprintf(w, "%9s  %-25s %s\n", offset(e.Wall, t0), e.Type, describe(&e))
		switch e.Type {
		case EvGuardianRun:
			executions++
		case EvAlarm:
			alarms++
		case EvRangeWiden:
			widened++
		case EvDeviceDisable:
			disabled = append(disabled, e.Field("device"))
		case EvDiagnosis:
			diagnosis = e.Field("diagnosis")
		}
	}

	fmt.Fprintln(w)
	fmt.Fprintf(w, "summary: %d event(s) over %s\n", len(events), offset(events[len(events)-1].Wall, t0))
	if executions > 0 {
		fmt.Fprintf(w, "  executions: %d\n", executions)
	}
	if alarms > 0 {
		fmt.Fprintf(w, "  alarms:     %d\n", alarms)
	}
	if widened > 0 {
		fmt.Fprintf(w, "  ranges widened on-line: %d\n", widened)
	}
	if len(disabled) > 0 {
		fmt.Fprintf(w, "  devices disabled: %d (device %s)\n", len(disabled), strings.Join(disabled, ", "))
	}
	if diagnosis != "" {
		fmt.Fprintf(w, "  final diagnosis: %s\n", diagnosis)
	}
}

func offset(t, t0 time.Time) string {
	d := t.Sub(t0)
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("+%dµs", d.Microseconds())
	case d < time.Second:
		return fmt.Sprintf("+%.1fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("+%.2fs", d.Seconds())
	}
}

// describe renders an event's fields in a stable, schema-aware order so
// the timeline reads as prose rather than a key dump.
func describe(e *DecodedEvent) string {
	pick := func(keys ...string) string {
		var parts []string
		seen := make(map[string]bool, len(keys))
		for _, k := range keys {
			if _, ok := e.Fields[k]; ok {
				parts = append(parts, k+"="+e.Field(k))
				seen[k] = true
			}
		}
		// Any remaining fields, sorted by insertion-agnostic name order.
		var rest []string
		for k := range e.Fields {
			if !seen[k] {
				rest = append(rest, k)
			}
		}
		sort.Strings(rest)
		for _, k := range rest {
			parts = append(parts, k+"="+e.Field(k))
		}
		return strings.Join(parts, " ")
	}

	switch e.Type {
	case EvKernelLaunch:
		return pick("kernel", "grid", "block", "threads")
	case EvKernelRetire:
		return pick("kernel", "status", "cycles", "loop_cycles", "loads", "stores", "dur_ns")
	case EvAlarm:
		return pick("detector", "name", "kind", "value", "count", "expected")
	case EvGuardianRun:
		return pick("attempt", "device", "status", "sdc", "alarms", "cycles")
	case EvDiagnosis:
		return pick("diagnosis", "executions", "false_alarm", "disabled")
	case EvBIST:
		return pick("device", "pass")
	case EvDeviceDisable, EvBackoff:
		return pick("device", "backoff")
	case EvRangeWiden:
		return pick("detector", "value")
	case EvCampaignStart, EvCampaignProgress, EvCampaignDone:
		return pick("program", "injections", "done", "total", "coverage")
	default:
		return pick()
	}
}
