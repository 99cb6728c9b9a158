package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"hauberk/internal/fleet"
	"hauberk/internal/service"
)

// campaignsOpts drives the hauberkd client mode (-campaigns): the smoke
// scripts and operators use it to submit, watch, cancel, and verify
// campaigns without curl.
type campaignsOpts struct {
	base    string // daemon base URL
	submit  string // program to submit; empty = no submission
	scale   string
	dataset int
	tenant  string
	id      string // target campaign for status/cancel/events/digest
	cancel  bool
	wait    bool // long-poll the target to a terminal state
	events  int  // stream this many events from the target (0 = off)
	digest  bool // print only the digest (exact bytes, for diffing)
	poll    time.Duration
	timeout time.Duration
}

// campaignsCmd is the hauberkd client: with -submit it POSTs a
// campaign (printing the new id), with -id it targets an existing one;
// -wait long-polls to a terminal state, -cancel DELETEs, -events tails the
// campaign's live feed, -digest prints the digest bytes alone. With no
// action flags it lists every campaign the daemon knows.
func campaignsCmd(o campaignsOpts) int {
	o.base = normalizeBase(o.base)
	if o.digest {
		o.wait = true // a digest only exists at the terminal state
	}
	cl := campaignsClient(o.base)
	ctx := context.Background()
	if o.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.timeout)
		defer cancel()
	}
	if o.submit != "" {
		st, err := cl.Submit(ctx, service.Submission{
			Tenant:  o.tenant,
			Program: o.submit,
			Scale:   o.scale,
			Dataset: o.dataset,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "campaigns: %v\n", err)
			return 1
		}
		fmt.Printf("submitted %s (%s %s/%d tenant=%s)\n",
			st.ID, st.Program, st.Scale, st.Dataset, st.Tenant)
		o.id = st.ID
	}

	switch {
	case o.cancel:
		if o.id == "" {
			fmt.Fprintln(os.Stderr, "campaigns: -cancel needs -id")
			return 2
		}
		st, err := cl.Cancel(ctx, o.id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "campaigns: %v\n", err)
			return 1
		}
		fmt.Printf("%s: %s\n", st.ID, st.State)
		return 0
	case o.events > 0:
		if o.id == "" {
			fmt.Fprintln(os.Stderr, "campaigns: -events needs -id (or -submit)")
			return 2
		}
		return tailEvents(o.base+"/v1/campaigns/"+o.id, o.events, o.timeout)
	case o.id != "":
		st, err := waitCampaign(ctx, cl, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "campaigns: %v\n", err)
			return 1
		}
		if o.digest {
			// Exact digest bytes, nothing else: `diff` against the
			// trailing lines of a `hauberk-run -campaign-dir` run is the
			// service's correctness check.
			fmt.Print(st.Digest)
			if st.State != service.StateDone {
				fmt.Fprintf(os.Stderr, "campaigns: %s is %s, digest may be absent\n", st.ID, st.State)
				return 1
			}
			return 0
		}
		printStatus(st)
		if o.wait && st.State != service.StateDone {
			return 1
		}
		return 0
	default:
		list, err := cl.List(ctx)
		if err != nil {
			fmt.Fprintf(os.Stderr, "campaigns: %v\n", err)
			return 1
		}
		printList(list)
		return 0
	}
}

// campaignsClient is the one hauberkd API client of -campaigns: every
// verb goes through the fleet transport, which bounds retries — admission
// pushback (429) retries at most MaxAttempts times, each honored
// Retry-After capped and jittered, so a daemon stuck answering 429 cannot
// park the client until its deadline.
func campaignsClient(base string) *fleet.Client {
	tr := fleet.NewTransport(httpClient.Timeout)
	tr.MaxAttempts = 6
	return tr.Client(base)
}

// waitCampaign fetches the target's status; with o.wait it long-polls to
// a terminal state, each request parked on the daemon for up to o.poll,
// rendering a progress line per change.
func waitCampaign(ctx context.Context, cl *fleet.Client, o campaignsOpts) (service.Status, error) {
	deadline := time.Now().Add(o.timeout)
	var lastLine string
	var wait time.Duration
	if o.wait {
		wait = o.poll
	}
	for {
		asked := time.Now()
		st, err := cl.Wait(ctx, o.id, wait)
		if err != nil {
			return st, err
		}
		if !o.wait || st.State.Terminal() {
			return st, nil
		}
		if line := fmt.Sprintf("%s %s %d/%d", st.State, st.Program,
			st.Progress.Completed, st.Progress.Total); line != lastLine && !o.digest {
			fmt.Println(line)
			lastLine = line
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("%s still %s after %s", st.ID, st.State, o.timeout)
		}
		// An early unsettled answer (interrupted by a drain, or a daemon
		// without ?wait=) still paces the loop at o.poll.
		time.Sleep(time.Until(asked.Add(wait)))
	}
}

func printStatus(st service.Status) {
	fmt.Printf("%s  tenant=%s  %s %s/%d  %s", st.ID, st.Tenant, st.Program, st.Scale, st.Dataset, st.State)
	if st.Progress.Total > 0 {
		fmt.Printf("  %d/%d", st.Progress.Completed, st.Progress.Total)
	}
	if st.Error != "" {
		fmt.Printf("  error=%q", st.Error)
	}
	fmt.Println()
	if st.Digest != "" {
		fmt.Printf("figure digest:\n%s", st.Digest)
	}
}

func printList(list []service.Status) {
	fmt.Printf("%-9s %-10s %-10s %-6s %-12s %s\n", "ID", "TENANT", "PROGRAM", "SCALE", "STATE", "PROGRESS")
	for _, st := range list {
		prog := "-"
		if st.Progress.Total > 0 {
			prog = fmt.Sprintf("%d/%d", st.Progress.Completed, st.Progress.Total)
		}
		fmt.Printf("%-9s %-10s %-10s %-6s %-12s %s\n",
			st.ID, st.Tenant, st.Program, st.Scale, st.State, prog)
	}
	fmt.Printf("%d campaigns\n", len(list))
}
