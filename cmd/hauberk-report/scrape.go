package main

import (
	"bytes"
	"context"
	"fmt"
	"os"

	"hauberk/internal/obs/promtext"
)

// scrapeMonitor GETs /healthz, /readyz and /metrics from a hauberkd or a
// `hauberk-run -http` monitor through the fleet transport, strict-parses
// the exposition, and prints a family/series summary. Exit code 0 only
// when everything parses and health checks pass.
func scrapeMonitor(base string) int {
	cl := campaignsClient(base)
	ctx := context.Background()
	for _, p := range []string{"/healthz", "/readyz"} {
		if _, err := cl.Get(ctx, p); err != nil {
			fmt.Fprintf(os.Stderr, "scrape: %v\n", err)
			return 1
		}
		fmt.Printf("%s: ok\n", p)
	}
	exp, err := cl.Get(ctx, "/metrics")
	if err != nil {
		fmt.Fprintf(os.Stderr, "scrape: %v\n", err)
		return 1
	}
	parsed, err := promtext.Parse(bytes.NewReader(exp))
	if err != nil {
		fmt.Fprintf(os.Stderr, "scrape: %v\n", err)
		return 1
	}
	series := 0
	for _, f := range parsed.Families {
		series += len(f.Samples)
	}
	fmt.Printf("/metrics: %d families, %d series, exposition parses strictly\n",
		len(parsed.Families), series)
	for _, f := range parsed.Families {
		fmt.Printf("  %-45s %-9s %d series\n", f.Name, f.Type, len(f.Samples))
	}
	return 0
}
