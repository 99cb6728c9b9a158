// Command hauberkd is the long-running campaign service: it accepts
// SWIFI campaign submissions over HTTP JSON, schedules them across a
// bounded slot budget with per-tenant weighted fairness and admission
// control, and checkpoints every campaign through the durable JSONL
// store. SIGTERM drains gracefully — running campaigns flush their
// stores and resume on the next start, finishing with figure digests
// byte-identical to an uninterrupted `hauberk-run` of the same plan.
//
// Usage:
//
//	hauberkd -store /var/lib/hauberk [-addr 127.0.0.1:8345]
//	         [-slots 2] [-queue-depth 64] [-isolation off|process]
//	         [-drain-timeout 30s]
//
// See `hauberk-report -campaigns <url>` for the matching client.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hauberk/internal/service"
	"hauberk/internal/version"
)

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", "127.0.0.1:8345", "HTTP listen address (host:port; :0 picks a port)")
	store := flag.String("store", "", "campaign store root directory (required)")
	slots := flag.Int("slots", 2, "concurrently executing campaigns")
	queueDepth := flag.Int("queue-depth", 64, "per-tenant queue bound; a full queue answers 429")
	isolation := flag.String("isolation", "off", "default worker isolation: off or process")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max wait for running campaigns to checkpoint on shutdown")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Printf("hauberkd %s (%s)\n", version.Version, version.GoVersion())
		return 0
	}
	if *store == "" {
		fmt.Fprintln(os.Stderr, "hauberkd: -store is required")
		flag.Usage()
		return 2
	}

	logger := log.New(os.Stderr, "", log.LstdFlags|log.Lmsgprefix)
	d, err := service.NewDaemon(service.Config{
		Addr:         *addr,
		StoreRoot:    *store,
		Slots:        *slots,
		QueueDepth:   *queueDepth,
		Isolation:    *isolation,
		DrainTimeout: *drainTimeout,
		Logf:         logger.Printf,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if err := d.Start(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	// The bound address on stdout is the contract the smoke scripts and
	// load harness rely on when -addr ends in :0.
	fmt.Printf("hauberkd: listening on %s\n", d.Addr())

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	sig := <-sigCh
	signal.Stop(sigCh)
	logger.Printf("hauberkd: %s received, draining", sig)

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout+10*time.Second)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}
