package main

import (
	"fmt"
	"os"

	"hauberk/internal/harness"
)

// benchDiffCmd implements `hauberk-report -bench-diff old.json new.json`:
// the CI perf gate. Exit codes: 0 pass, 1 regression past the threshold,
// 2 structural failure (unreadable report or no common workloads).
func benchDiffCmd(paths []string, opts harness.BenchDiffOptions) int {
	if len(paths) != 2 {
		fmt.Fprintln(os.Stderr, "usage: hauberk-report -bench-diff [-bench-threshold pct] [-bench-ratios-only] old.json new.json")
		return 2
	}
	oldR, err := harness.LoadBenchReport(paths[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "report: %v\n", err)
		return 2
	}
	newR, err := harness.LoadBenchReport(paths[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "report: %v\n", err)
		return 2
	}
	d, err := harness.DiffBenchReports(oldR, newR, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "report: %v\n", err)
		return 2
	}
	fmt.Print(d.Render())
	if d.Regressed() {
		return 1
	}
	return 0
}
