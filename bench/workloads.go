package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"hauberk/internal/harness"
	"hauberk/internal/stats"
	"hauberk/internal/workloads"
)

// workloadDef describes one benchmark workload. The four of them are
// frozen in BENCHMARK.json, which also says why each exists; README.md has
// the long form.
type workloadDef struct {
	name string
	// programs under test, in canonical order (-seed rotates it), and the
	// campaign scale they run at.
	programs []string
	scale    string
	// clients is the number of closed-loop client goroutines (capped at
	// the host's CPU count); each runs whole passes.
	clients int
	// warmup is how many passes each client runs through the freshly
	// built topology before the timed window opens; it is part of setup.
	warmup int
	// tracePasses is how many passes per client the traced run drives
	// through each real topology: a fixed count, so the traced run's
	// operation and injection counts repeat exactly.
	tracePasses int
	// repeat is how many times one pass runs the program list (0 reads as
	// 1). A pass is the unit every quartile is taken over, so it has to be
	// long enough to time: a lone tiny campaign is not.
	repeat int
	// rssPasses is how many passes of the lead client rss_mb is sampled
	// over: fixed work, about half a window at the commit that defined the
	// benchmark. The daemons keep every finished campaign, so memory over a
	// fixed time would grow with throughput and read a speed-up as a
	// regression.
	rssPasses int
	// build stands the topology up inside dir, cold: nothing prepared in
	// an earlier build is reused.
	build func(dir string, plans []plan) (topology, error)
}

func hpcNames() []string {
	var names []string
	for _, s := range workloads.HPC() {
		names = append(names, s.Name)
	}
	return names
}

// workloadDefs returns the four workloads in BENCHMARK.json order.
func workloadDefs() []workloadDef {
	return []workloadDef{
		{
			name:     "inproc_hpc",
			programs: hpcNames(), scale: "quick", clients: 1, warmup: 0, tracePasses: 1, rssPasses: 3,
			build: func(dir string, plans []plan) (topology, error) {
				return newHarnessTopo(dir, harness.IsolationOff, plans)
			},
		},
		{
			name:     "isolated_light",
			programs: []string{"RPES", "ray-trace"}, scale: "quick", clients: 1, warmup: 3, tracePasses: 5, rssPasses: 50,
			build: func(dir string, plans []plan) (topology, error) {
				return newHarnessTopo(dir, harness.IsolationProcess, plans)
			},
		},
		{
			name:     "daemon_tiny",
			programs: []string{"RPES"}, scale: "tiny", clients: 2, repeat: 100, warmup: 1, tracePasses: 3, rssPasses: 20,
			build: func(dir string, _ []plan) (topology, error) {
				return newDaemonTopo(dir, 2, 64, clientCount(2))
			},
		},
		{
			name:     "fleet_full",
			programs: []string{"RPES", "ray-trace", "TPACF"}, scale: "full", clients: 1, warmup: 1, tracePasses: 1, rssPasses: 4,
			build: func(dir string, _ []plan) (topology, error) {
				return newFleetTopo(dir, 3)
			},
		},
	}
}

func workloadByName(name string) (workloadDef, bool) {
	for _, d := range workloadDefs() {
		if d.name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

// clientCount caps client goroutines at the host's CPU count, so the load
// generator never outnumbers the cores it shares with the system.
func clientCount(want int) int {
	if n := runtime.NumCPU(); want > n {
		return n
	}
	return want
}

// plansFor derives a workload's inputs from the seed: dataset index
// seed mod NumDatasets per program, and the program order rotated by the
// seed.
func plansFor(def workloadDef, scale string, seed int) ([]plan, error) {
	n := len(def.programs)
	plans := make([]plan, 0, n)
	for i := 0; i < n; i++ {
		name := def.programs[(i+seed%n+n)%n]
		spec := workloads.ByName(name)
		if spec == nil {
			return nil, fmt.Errorf("bench: unknown program %q", name)
		}
		idx := 0
		if spec.NumDatasets > 0 {
			idx = ((seed % spec.NumDatasets) + spec.NumDatasets) % spec.NumDatasets
		}
		plans = append(plans, plan{spec: spec, scale: scale, ds: workloads.Dataset{Index: idx}})
	}
	return plans, nil
}

// smokeLimit caps a smoke run's program list and pass length.
const smokeLimit = 3

// inputsFor returns a run's plans and the operations of one pass. A smoke
// run shrinks both: tiny scale, at most smokeLimit programs, at most
// smokeLimit repeats.
func inputsFor(def workloadDef, cfg config) (plans, pass []plan, err error) {
	scale, repeat := def.scale, def.repeat
	if cfg.smoke {
		scale, repeat = "tiny", min(repeat, smokeLimit)
	}
	if plans, err = plansFor(def, scale, cfg.seed); err != nil {
		return nil, nil, err
	}
	if cfg.smoke && len(plans) > smokeLimit {
		plans = plans[:smokeLimit]
	}
	return plans, repeatPlans(plans, repeat), nil
}

// refBook is the output-correctness gate: every campaign of one plan in a
// run must report the same digest and injection count as the first.
type refBook struct {
	mu   sync.Mutex
	refs map[string]opResult
}

func newRefBook() *refBook { return &refBook{refs: make(map[string]opResult)} }

// check records the first result of a plan and compares later ones
// against it.
func (b *refBook) check(p plan, r opResult) error {
	if r.digest == "" || r.injections <= 0 {
		return fmt.Errorf("bench: %s: empty digest or no injections", p.key())
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	ref, ok := b.refs[p.key()]
	if !ok {
		b.refs[p.key()] = opResult{digest: r.digest, injections: r.injections}
		return nil
	}
	if ref.digest != r.digest || ref.injections != r.injections {
		return fmt.Errorf("bench: %s: digest mismatch (%d injections, fnv %s; reference %d, fnv %s)",
			p.key(), r.injections, fnvHex(r.digest), ref.injections, fnvHex(ref.digest))
	}
	return nil
}

// fnv folds every reference digest, ordered by plan key, into one short
// string two commits can be compared by.
func (b *refBook) fnv() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	keys := make([]string, 0, len(b.refs))
	for k := range b.refs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	labels := make([]any, 0, 2*len(keys))
	for _, k := range keys {
		labels = append(labels, k, b.refs[k].digest)
	}
	return fnvHex(labels...)
}

func fnvHex(labels ...any) string { return fmt.Sprintf("%016x", stats.Fingerprint(labels...)) }

// op is one timed campaign.
type op struct {
	program string
	end     time.Time
	latency time.Duration
	res     opResult
	err     error
}

// mark is one pass boundary of the lead client: the clock and the process
// tree's CPU time at that instant.
type mark struct {
	at  time.Time
	cpu time.Duration
}

// slice is the window between two consecutive marks: one whole pass of
// the lead client, so every slice of a workload holds the same program
// mix.
type slice struct {
	wall, cpu  time.Duration
	injections int
}

// runResult is everything one untraced run measured.
type runResult struct {
	def        workloadDef
	setups     []float64 // seconds, one per cold set-up
	window     time.Duration
	cpu        time.Duration
	slices     []slice
	rssMB      []float64 // resident set, sampled over the first rssPasses passes
	ops        []op
	injections int
	failed     int
	firstErr   error
	digestFNV  string
}

// setupRepeats is how many times a run builds its topology cold; setup_s
// is the median, which one slow page-in or scheduler hiccup cannot move.
const setupRepeats = 3

// rssSampleEvery is the resident-set sampling period inside the window.
const rssSampleEvery = 100 * time.Millisecond

// rssSample is one reading of the resident set.
type rssSample struct {
	at time.Time
	mb float64
}

// rssOver keeps the readings taken before the lead client finished its
// passes-th pass (all of them when the window held fewer passes).
func rssOver(samples []rssSample, marks []mark, passes int) []float64 {
	cut := marks[min(passes, len(marks)-1)].at
	var mb []float64
	for _, s := range samples {
		if !s.at.After(cut) {
			mb = append(mb, s.mb)
		}
	}
	return mb
}

// runWorkload is one end-to-end run: cold set-up (repeated; the last
// topology is kept), then one timed window of whole passes.
func runWorkload(ctx context.Context, def workloadDef, cfg config, scratch string) (*runResult, error) {
	plans, pass, err := inputsFor(def, cfg)
	if err != nil {
		return nil, err
	}
	repeats := setupRepeats
	if cfg.smoke {
		repeats = 1
	}
	clients := clientCount(def.clients)
	out := &runResult{def: def}
	book := newRefBook()

	var topo topology
	for i := 0; i < repeats; i++ {
		if topo != nil {
			topo.close()
		}
		t0 := time.Now()
		topo, err = def.build(filepath.Join(scratch, fmt.Sprintf("setup%d", i)), plans)
		if err != nil {
			return nil, err
		}
		warm, _ := drive(ctx, topo, pass, clients, book, func(passes int, _ time.Duration) bool { return passes >= def.warmup })
		for _, o := range warm {
			if o.err != nil {
				topo.close()
				return nil, fmt.Errorf("bench: warm-up: %w", o.err)
			}
		}
		out.setups = append(out.setups, time.Since(t0).Seconds())
	}
	defer topo.close()

	// One collection up front so every window starts from the same heap
	// state instead of wherever set-up's garbage left the pacer.
	runtime.GC()
	stopRSS := make(chan struct{})
	rssDone := make(chan []rssSample)
	go func() {
		samples := []rssSample{{at: time.Now(), mb: residentMB()}}
		tick := time.NewTicker(rssSampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-stopRSS:
				rssDone <- samples
				return
			case at := <-tick.C:
				samples = append(samples, rssSample{at: at, mb: residentMB()})
			}
		}
	}()
	budget := time.Duration(cfg.seconds * float64(time.Second))
	cpu0, t0 := cpuTime(), time.Now()
	var marks []mark
	out.ops, marks = drive(ctx, topo, pass, clients, book, func(passes int, elapsed time.Duration) bool {
		// Whole passes only, so every slice holds the same program mix;
		// stop at the pass boundary nearest the budget.
		return passes >= 1 && elapsed+elapsed/time.Duration(2*passes) >= budget
	})
	out.window = time.Since(t0)
	out.cpu = cpuTime() - cpu0
	close(stopRSS)
	out.rssMB = rssOver(<-rssDone, marks, def.rssPasses)

	for _, o := range out.ops {
		if o.err != nil {
			out.failed++
			if out.firstErr == nil {
				out.firstErr = o.err
			}
			continue
		}
		out.injections += o.res.injections
	}
	out.slices = slicesOf(marks, out.ops)
	out.digestFNV = book.fnv()
	return out, nil
}

// repeatPlans returns plans repeated n times (n < 1 reads as 1): the
// operations of one pass.
func repeatPlans(plans []plan, n int) []plan {
	pass := plans
	for i := 1; i < n; i++ {
		pass = append(pass[:len(pass):len(pass)], plans...)
	}
	return pass
}

// drive runs the closed loop: each client goroutine executes whole passes
// over pass until done(passes, elapsed) says stop, checking every result
// against the reference book. A failed campaign is recorded, not retried.
// The marks are client 0's pass boundaries.
func drive(ctx context.Context, topo topology, pass []plan, clients int, book *refBook, done func(passes int, elapsed time.Duration) bool) ([]op, []mark) {
	start := time.Now()
	perClient := make([][]op, clients)
	marks := []mark{{at: start, cpu: cpuTime()}}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for passes := 0; !done(passes, time.Since(start)) && ctx.Err() == nil; passes++ {
				for _, p := range pass {
					t0 := time.Now()
					res, err := topo.run(ctx, c, p)
					if err == nil {
						err = book.check(p, res)
					}
					end := time.Now()
					perClient[c] = append(perClient[c], op{program: p.spec.Name, end: end, latency: end.Sub(t0), res: res, err: err})
				}
				if c == 0 {
					marks = append(marks, mark{at: time.Now(), cpu: cpuTime()})
				}
			}
		}(c)
	}
	wg.Wait()
	var all []op
	for _, ops := range perClient {
		all = append(all, ops...)
	}
	return all, marks
}

// slicesOf cuts the window at the lead client's pass boundaries and
// counts, per slice, the injections of every campaign (of any client)
// that finished inside it.
func slicesOf(marks []mark, ops []op) []slice {
	var out []slice
	for i := 0; i+1 < len(marks); i++ {
		lo, hi := marks[i], marks[i+1]
		s := slice{wall: hi.at.Sub(lo.at), cpu: hi.cpu - lo.cpu}
		for _, o := range ops {
			if o.err == nil && o.end.After(lo.at) && !o.end.After(hi.at) {
				s.injections += o.res.injections
			}
		}
		out = append(out, s)
	}
	return out
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd folds a run into the end-to-end metrics BENCHMARK.json
// declares. Throughput is the upper quartile over the run's slices and CPU
// cost the lower one: on a shared two-core host interference (a neighbour,
// a journal commit, an unlucky collection) only ever slows a slice, and ten
// runs of one binary agreed a quarter closer on the better quartile than on
// the median, and closer still than on the window mean (README.md has the
// numbers). Memory is the median of its samples.
func (r *runResult) endToEnd() map[string]metric {
	var rate, cpu []float64
	for _, s := range r.slices {
		if s.injections > 0 && s.wall > 0 {
			rate = append(rate, float64(s.injections)/s.wall.Seconds())
			cpu = append(cpu, ms(s.cpu)/float64(s.injections))
		}
	}
	return map[string]metric{
		"setup_s":              {median(r.setups), "s"},
		"injections_per_s":     {quantile(sorted(rate), 0.75), "1/s"},
		"cpu_ms_per_injection": {quantile(sorted(cpu), 0.25), "ms"},
		"rss_mb":               {median(r.rssMB), "MB"},
	}
}

// latencies returns the sorted campaign latencies (ms) of one program.
func (r *runResult) latencies(program string) []float64 {
	var lat []float64
	for _, o := range r.ops {
		if o.err == nil && o.program == program {
			lat = append(lat, ms(o.latency))
		}
	}
	return sorted(lat)
}

// programs lists the programs the run's campaigns covered, in first-seen
// order.
func (r *runResult) programs() []string {
	var names []string
	seen := make(map[string]bool)
	for _, o := range r.ops {
		if !seen[o.program] {
			seen[o.program] = true
			names = append(names, o.program)
		}
	}
	return names
}
