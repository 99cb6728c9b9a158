package main

import (
	"bytes"
	"context"
	"math"
	"os"
	"regexp"
	"testing"

	"hauberk/internal/guardian/procexec"
)

// TestMain lets the test binary stand in for the benchmark binary when
// the isolation executor and the procexec probe re-exec it.
func TestMain(m *testing.M) {
	serveIfWorker()
	os.Exit(m.Run())
}

func TestHighestPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {8, 0}, {39, 0},
		{40, 0.75}, {99, 0.75},
		{100, 0.90}, {199, 0.90},
		{200, 0.95}, {999, 0.95},
		{1000, 0.99}, {9999, 0.99},
		{10000, 0.999},
	} {
		if got := highestPercentile(tc.n); got != tc.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for q, want := range map[float64]float64{0.5: 5, 0.9: 9, 0.99: 10, 0: 1} {
		if got := nearestRank(s, q); got != want {
			t.Errorf("nearestRank(q=%v) = %v, want %v", q, got, want)
		}
	}
}

// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25];
// statistics.quantiles([10, 1, 7, 3, 3], n=4) == [2.0, 3.0, 8.5].
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{10, 1, 7, 3, 3})
	if q1 != 2 || q3 != 8.5 {
		t.Errorf("quartiles(10,1,7,3,3) = %v, %v, want 2, 8.5", q1, q3)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "parent", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},    // overlaps a: the union counts once
		{Name: "c", Start: 90, End: 120, Parent: 0},   // sticks out: clipped to the parent
		{Name: "leaf", Start: 12, End: 18, Parent: 1}, // grandchild: comes off a, not off parent
	}
	want := []int64{100 - 40 - 10, 20 - 6, 30, 30, 6}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	tot := totalsByName(spans)
	if tot["parent"].self != 50 || tot["parent"].total != 100 || tot["a"].count != 1 {
		t.Errorf("totalsByName(parent) = %+v", tot["parent"])
	}
}

func TestWorsening(t *testing.T) {
	if got := worsening("higher", 100, 90); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("throughput 100 -> 90 worsened by %v, want 0.10", got)
	}
	if got := worsening("lower", 100, 90); math.Abs(got+0.10) > 1e-12 {
		t.Errorf("latency 100 -> 90 worsened by %v, want -0.10", got)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkDecl holds BENCHMARK.json to the contract's shape and to
// this package: same workloads, legal and unique names, setup_s present.
func TestBenchmarkDecl(t *testing.T) {
	decl, err := loadBenchmarkDecl("../" + benchmarkFile)
	if err != nil {
		t.Fatal(err)
	}
	defs := workloadDefs()
	if len(decl.Workloads) != len(defs) {
		t.Fatalf("%d workloads declared, %d defined", len(decl.Workloads), len(defs))
	}
	seen := make(map[string]bool)
	for i, w := range decl.Workloads {
		if w.Name != defs[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the code", i, w.Name, defs[i].name)
		}
		if len(w.Why) > 200 || !nameRE.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload %q: bad or repeated name, or why too long", w.Name)
		}
		seen[w.Name] = true
	}
	setup := false
	for _, m := range append(append([]metricDecl(nil), decl.EndToEnd...), decl.PerLayer...) {
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric %q: bad or repeated name", m.Name)
		}
		seen[m.Name] = true
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: bad unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range decl.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			setup = true
		}
	}
	if !setup {
		t.Error("no setup_s metric with unit s, better lower")
	}
	if decl.RunSeconds < 1 || decl.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", decl.RunSeconds)
	}
}

// TestSmoke runs every workload at reduced counts, untraced and traced,
// and asserts that every declared metric is printed with its declared
// unit and that the exact counts repeat. It asserts nothing about time.
func TestSmoke(t *testing.T) {
	decl, err := loadBenchmarkDecl("../" + benchmarkFile)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	defer procexec.KillAllWorkers()
	for _, def := range workloadDefs() {
		def := def
		t.Run(def.name, func(t *testing.T) {
			run := func(trace bool) (*result, string) {
				var out bytes.Buffer
				res, err := runOnce(ctx, def, config{workload: def.name, seed: 1, trace: trace, smoke: true}, t.TempDir(), &out)
				if err != nil {
					t.Fatalf("trace=%v: %v\n%s", trace, err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("trace=%v: correct=%v attempted=%d failed=%d\n%s", trace, res.Correct, res.Attempted, res.Failed, out.String())
				}
				return res, out.String()
			}
			check := func(res *result, decls []metricDecl) {
				if len(res.Metrics) != len(decls) {
					t.Errorf("%d metrics printed, %d declared", len(res.Metrics), len(decls))
				}
				for _, d := range decls {
					m, ok := res.Metrics[d.Name]
					if !ok {
						t.Errorf("metric %s declared but not printed", d.Name)
					} else if m.Unit != d.Unit {
						t.Errorf("metric %s printed in %q, declared in %q", d.Name, m.Unit, d.Unit)
					}
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("metric %s = %v", d.Name, m.Value)
					}
				}
			}
			e2e, _ := run(false)
			check(e2e, decl.EndToEnd)
			for _, d := range decl.EndToEnd {
				if e2e.Metrics[d.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, e2e.Metrics[d.Name].Value)
				}
			}

			first, firstOut := run(true)
			check(first, decl.PerLayer)
			again, againOut := run(true)
			if a, b := first.Metrics["gpu.sim_cycles"].Value, again.Metrics["gpu.sim_cycles"].Value; a != b || a <= 0 {
				t.Errorf("gpu.sim_cycles did not repeat: %v then %v", a, b)
			}
			if a, b := countsLine(firstOut), countsLine(againOut); a != b || a == "" {
				t.Errorf("counts did not repeat:\n%s\n%s", a, b)
			}
			for _, name := range []string{"fleet.failovers", "fleet.rpc_retries", "service.rejected_429"} {
				if v := first.Metrics[name].Value; v != 0 {
					t.Errorf("%s = %v, want 0", name, v)
				}
			}
		})
	}
}

// countsLine extracts the "ops_attempted … injections … digest_fnv …"
// line of a report.
func countsLine(report string) string {
	for _, line := range bytes.Split([]byte(report), []byte("\n")) {
		if bytes.HasPrefix(line, []byte("ops_attempted ")) {
			return string(line)
		}
	}
	return ""
}
