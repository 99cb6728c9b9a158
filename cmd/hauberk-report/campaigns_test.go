package main

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"

	"hauberk/internal/fleet"
	"hauberk/internal/service"
)

// startTestDaemon self-hosts a campaign daemon for client tests.
func startTestDaemon(t *testing.T) string {
	t.Helper()
	d, err := service.NewDaemon(service.Config{
		Addr:       "127.0.0.1:0",
		StoreRoot:  t.TempDir(),
		Slots:      1,
		QueueDepth: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		d.Shutdown(ctx) //nolint:errcheck
	})
	return "http://" + d.Addr()
}

// TestCampaignsClientRoundTrip drives the -campaigns client verbs
// against a real daemon: submit, wait to done, digest, status print,
// list, event tail, and cancel (a no-op on a terminal campaign).
func TestCampaignsClientRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a real campaign")
	}
	base := startTestDaemon(t)
	cl := campaignsClient(base)
	ctx := context.Background()

	st, err := cl.Submit(ctx, service.Submission{Tenant: "default", Program: "CP", Scale: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(st.ID, "c") || st.Program != "CP" {
		t.Fatalf("unexpected submit response: %+v", st)
	}

	common := campaignsOpts{base: base, id: st.ID, poll: 20 * time.Millisecond, timeout: 2 * time.Minute}

	digest := common
	digest.digest = true
	if code := campaignsCmd(digest); code != 0 {
		t.Fatalf("-digest exited %d", code)
	}
	if code := campaignsCmd(common); code != 0 {
		t.Fatalf("status exited %d", code)
	}
	if code := campaignsCmd(campaignsOpts{base: base}); code != 0 {
		t.Fatalf("list exited %d", code)
	}
	events := common
	events.events = 2
	events.timeout = 30 * time.Second
	if code := campaignsCmd(events); code != 0 {
		t.Fatalf("-events exited %d", code)
	}
	cancel := common
	cancel.cancel = true
	if code := campaignsCmd(cancel); code != 0 {
		t.Fatalf("-cancel exited %d", code)
	}
	if got, err := cl.Wait(ctx, st.ID, 0); err != nil || got.State != service.StateDone {
		t.Fatalf("terminal campaign after cancel: state=%v err=%v (cancel of a done campaign must be a no-op)", got.State, err)
	}
	if list, err := cl.List(ctx); err != nil || len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("list = %+v, %v; want the one campaign %s", list, err, st.ID)
	}

	var se *fleet.StatusError
	if _, err := cl.Wait(ctx, "c999999", 0); !errors.As(err, &se) || se.Code != http.StatusNotFound {
		t.Fatalf("status of an unknown id: %v, want a 404 *fleet.StatusError", err)
	}
}
