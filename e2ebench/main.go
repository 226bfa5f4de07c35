// Command e2ebench is the repository's end-to-end benchmark. It runs one
// workload in one process as a closed loop with a single client on one
// goroutine, checks every op's output, and prints one JSON result line:
//
//	e2ebench --workload step-warm --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// a separate traced run times the calls into each layer from outside the
// program, writes the spans as Chrome trace-event JSON and reports
// per-layer metrics. README.md records why each workload exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

// Set-up is timed in batches: one batch repeats the set-up until
// setupMinRep has passed and records the mean time of one set-up, so a
// set-up of microseconds is not decided by timer jitter. Batches run
// between ops until they have taken setupShare of the run's wall time.
// setup_s is their median, so it sees the same drift in machine speed
// over the run as the op metrics do.
const (
	setupMinRep = 20 * time.Millisecond
	setupShare  = 0.05
)

// simOut is the simulated outcome of one op.
type simOut struct {
	stepSum   float64 // summed simulated step seconds
	steps     float64 // number of steps in stepSum
	done      int     // simulated cells or jobs completed
	submitted int     // simulated cells or jobs submitted
}

func (a *simOut) add(b simOut) {
	a.stepSum += b.stepSum
	a.steps += b.steps
	a.done += b.done
	a.submitted += b.submitted
}

// runner is a set-up workload. op runs op i untraced, checks its output
// and returns the time spent in the calls into the program, without the
// check or the client's housekeeping; traced runs op i again through the
// layers, recording spans.
type runner interface {
	op(i int) (simOut, time.Duration, error)
	traced(i int, tr *tracer) (simOut, error)
	close() error
}

// workload describes one benchmark workload.
type workload struct {
	name string
	// pass, when set, is the fixed number of ops in a run: both the
	// untraced and the traced run complete all of them whatever the
	// window. Zero means ops run until the window closes.
	pass int
	// setup builds the workload's state; dir is a directory of the run's
	// own that the state may write under.
	setup func(seed int64, dir string) (runner, error)
}

// workDir holds each run's scratch directory and the trace files, under
// the build directory of the working directory.
const workDir = ".bench_build/e2ebench"

var workloads = []workload{
	{name: "plan-cold", pass: len(planCases()), setup: setupPlanCold},
	{name: "step-warm", setup: setupStepWarm},
	{name: "fleet", setup: setupFleet},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: plan-cold, step-warm or fleet")
	seed := fs.Int64("seed", 1, "workload seed: problem order, cell order and fleet seeds")
	seconds := fs.Int("seconds", 30, "measurement window in seconds")
	traceFlag := fs.Int("trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "e2ebench: want --workload plan-cold|step-warm|fleet, --seconds > 0, --trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(workDir, w.name+"-")
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	st := &setupTimer{w: w, seed: *seed, dir: dir, start: time.Now()}
	r, err := st.batch()
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	window := time.Duration(*seconds) * time.Second
	var res result
	if *traceFlag == 0 {
		res, err = measure(w, r, st, window, stderr)
	} else {
		path := filepath.Join(workDir, fmt.Sprintf("trace-%s-seed%d.json", w.name, *seed))
		res, err = traceRun(w, r, window, path, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	if err := r.close(); err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// setupTimer times the workload's set-up in batches (see setupMinRep).
type setupTimer struct {
	w     *workload
	seed  int64
	dir   string
	start time.Time
	spent time.Duration // in timed set-ups
	times []float64     // seconds per set-up, one per batch
}

// batch times one batch and returns the state set up last; the states
// it replaced are closed outside the timing.
func (s *setupTimer) batch() (runner, error) {
	runtime.GC()
	var (
		r     runner
		spent time.Duration
		n     int
	)
	for ; n == 0 || spent < setupMinRep; n++ {
		if r != nil {
			if err := r.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		r, err = s.w.setup(s.seed, s.dir)
		spent += time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	s.spent += spent
	s.times = append(s.times, spent.Seconds()/float64(n))
	return r, nil
}

// due reports whether set-up timing is behind its share of the wall
// time since the run started.
func (s *setupTimer) due() bool {
	return float64(s.spent) < setupShare*float64(time.Since(s.start))
}

// catchUp times batches, closing what they set up, until it is not due.
func (s *setupTimer) catchUp() error {
	for s.due() {
		r, err := s.batch()
		if err != nil {
			return err
		}
		if err := r.close(); err != nil {
			return err
		}
	}
	return nil
}

// measure is the untraced end-to-end run: ops back to back on this
// goroutine until the window closes (or, for a fixed pass, until every op
// ran), with set-up batches timed between them. The client collects
// garbage before each op, outside its time, so an op's time and memory
// do not depend on how much garbage the ops before it left, and so on
// the seed's op order. A collection also flushes the allocation counts
// that alloc_mb_per_op reads, so the set-up batches' allocations are
// counted apart and left out.
func measure(w *workload, r runner, st *setupTimer, window time.Duration, stderr io.Writer) (result, error) {
	var (
		durs       []time.Duration
		rss        []float64
		sim        simOut
		t          tally
		setupAlloc uint64
	)
	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	heapAllocs := func() uint64 {
		runtime.GC()
		metrics.Read(allocs)
		return allocs[0].Value.Uint64()
	}
	catchUp := func() error {
		a0 := heapAllocs()
		err := st.catchUp()
		setupAlloc += heapAllocs() - a0
		return err
	}
	alloc0 := heapAllocs()
	deadline := time.Now().Add(window)
	for i := 0; w.pass == 0 || i < w.pass; i++ {
		if i > 0 && w.pass == 0 && !time.Now().Before(deadline) {
			break
		}
		if st.due() {
			if err := catchUp(); err != nil {
				return result{}, err
			}
		}
		runtime.GC()
		out, d, err := r.op(i)
		durs = append(durs, d)
		mb, rerr := residentMB()
		if rerr != nil {
			return result{}, rerr
		}
		rss = append(rss, mb)
		t.record(err)
		if err != nil {
			fmt.Fprintf(stderr, "e2ebench: op %d: %v\n", i, err)
		}
		if w.pass > 0 {
			fmt.Fprintf(stderr, "e2ebench: op %d took %v\n", i, durs[i])
		}
		sim.add(out)
	}
	alloc := heapAllocs() - alloc0 - setupAlloc
	if err := catchUp(); err != nil {
		return result{}, err
	}
	setupS := sorted(st.times)
	fmt.Fprintf(stderr, "e2ebench: %d set-up batches: min %.4gs, median %.4gs, max %.4gs\n",
		len(setupS), setupS[0], median(setupS), setupS[len(setupS)-1])

	ms := durationsMS(durs)
	var totalS float64
	for _, d := range durs {
		totalS += d.Seconds()
	}
	fmt.Fprintf(stderr, "e2ebench: %s: %d ops\n", w.name, len(durs))
	m := map[string]metric{
		"setup_s":         {median(setupS), "s"},
		"ops_per_s":       {float64(len(durs)) / totalS, "1/s"},
		"op_p50_ms":       {median(ms), "ms"},
		"alloc_mb_per_op": {float64(alloc) / 1e6 / float64(len(durs)), "MB"},
		"rss_mb":          {median(rss), "MB"},
		"ok_share":        {1 - t.errorShare(), "share"},
		"sim_step_s":      {ratio(sim.stepSum, sim.steps), "sim_s"},
		"sim_goodput":     {ratio(float64(sim.done), float64(sim.submitted)), "share"},
	}
	return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

// traceRun is the per-layer run: each op runs untraced, then again with
// spans around every layer call, until the window closes (or, for a
// fixed pass, until every op ran, so each seed traces the same
// problems). The untraced twin gives the tracing overhead, the op tail
// latency and the reference the traced op's output is checked against.
func traceRun(w *workload, r runner, window time.Duration, path string, stderr io.Writer) (result, error) {
	tr := newTracer()
	var (
		t             tally
		plain, traced time.Duration
		plainMS       []float64
		ops           int
	)
	deadline := time.Now().Add(window)
	for i := 0; w.pass == 0 || i < w.pass; i++ {
		if i > 0 && w.pass == 0 && !time.Now().Before(deadline) {
			break
		}
		runtime.GC()
		_, d, err := r.op(i)
		plain += d
		plainMS = append(plainMS, float64(d)/float64(time.Millisecond))
		t.record(err)
		if err != nil {
			fmt.Fprintf(stderr, "e2ebench: op %d: %v\n", i, err)
		}
		runtime.GC()
		tr.op = i
		n := len(tr.spans)
		_, err = r.traced(i, tr)
		t.record(err)
		if err != nil {
			fmt.Fprintf(stderr, "e2ebench: traced op %d: %v\n", i, err)
		}
		for _, s := range tr.spans[n:] {
			if s.parent < 0 && s.name == opSpan {
				traced += s.dur()
			}
		}
		ops++
	}
	if err := writeChromeTrace(path, tr.spans); err != nil {
		return result{}, fmt.Errorf("writing trace: %w", err)
	}
	fmt.Fprintf(stderr, "e2ebench: %s: %d traced ops, trace written to %s\n", w.name, ops, path)
	m := layerMetrics(tr)
	tailMS, tailPct := tail(plainMS)
	fmt.Fprintf(stderr, "e2ebench: %s: untraced op tail is p%.0f of %d ops\n", w.name, tailPct, len(plainMS))
	m["op_tail_ms"] = metric{tailMS, "ms"}
	m["trace.coverage"] = metric{coverage(tr.spans, opSpan, spanCell), "share"}
	m["trace.overhead"] = metric{ratio(float64(traced-plain), float64(plain)), "share"}
	return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

// layerMetrics turns spans and counters into the per-layer metrics. Every
// workload reports every metric; a layer the workload never calls reads 0.
func layerMetrics(tr *tracer) map[string]metric {
	st := selfTimes(tr.spans)
	mean := func(name string, unit time.Duration) float64 {
		s := st[name]
		if s == nil {
			return 0
		}
		return float64(s.self) / float64(unit) / float64(s.calls)
	}
	allocKB := func(name string) float64 {
		s := st[name]
		if s == nil {
			return 0
		}
		return float64(s.selfAlloc) / 1e3 / float64(s.calls)
	}
	c := tr.counts
	mips := c["partition.mips"]
	runs := c["cluster.runs"]
	cells := c["sim.cells"]
	return map[string]metric{
		"partition.mip_s":           {mean(spanMIP, time.Second), "s"},
		"partition.candidates":      {ratio(c["partition.candidates"], mips), "count"},
		"milp.nodes":                {ratio(c["milp.nodes"], mips), "count"},
		"partition.min_stage_share": {ratio(c["partition.min_stage"], mips), "share"},
		"profile.run_ms":            {mean(spanProfile, time.Millisecond), "ms"},
		"mapping.cross_ms":          {mean(spanCross, time.Millisecond), "ms"},
		"core.plan_drift":           {c["core.plan_drift"], "count"},
		"plansvc.lookup_us":         {mean(spanLookup, time.Microsecond), "us"},
		"plansvc.solves":            {c["plansvc.solves"], "count"},
		"pipeline.build_ms":         {mean(spanBuild, time.Millisecond), "ms"},
		"pipeline.build_alloc_kb":   {allocKB(spanBuild), "kB"},
		"sim.run_ms":                {mean(spanSimRun, time.Millisecond), "ms"},
		"sim.run_alloc_kb":          {allocKB(spanSimRun), "kB"},
		"zero.run_ms":               {mean(spanZero, time.Millisecond), "ms"},
		"zero.run_alloc_kb":         {allocKB(spanZero), "kB"},
		"trace.analysis_ms":         {mean(spanAnalysis, time.Millisecond), "ms"},
		"sim.tasks":                 {ratio(c["sim.tasks"], cells), "count"},
		"trace.flows":               {ratio(c["trace.flows"], cells), "count"},
		"cluster.run_ms":            {mean(spanCluster, time.Millisecond), "ms"},
		"cluster.events":            {ratio(c["cluster.events"], runs), "count"},
		"cluster.plan_solves":       {ratio(c["cluster.plan_solves"], runs), "count"},
		"cluster.plan_hits":         {ratio(c["cluster.plan_hits"], runs), "count"},
		"cluster.dispatch_retries":  {ratio(c["cluster.dispatch_retries"], runs), "count"},
		"cluster.gold_wait_p99_s":   {ratio(c["cluster.gold_wait_p99_s"], runs), "sim_s"},
		"planstore.load_ms":         {mean(spanStoreLoad, time.Millisecond), "ms"},
	}
}

// Span names: the layer entry point each span times, and the spans that
// group them. opSpan is the root of a traced op; a root span of another
// name (the fleet's restart probe) is benchmark work, not op time.
const (
	opSpan        = "op"
	spanProbe     = "fleet.restart_probe"
	spanProfile   = "profile.Run"
	spanMIP       = "partition.MIPCtx"
	spanStepTime  = "partition.StepTime"
	spanCross     = "mapping.CrossN"
	spanLookup    = "plansvc.PlanMobius"
	spanBuild     = "pipeline.BuildMobius"
	spanSimRun    = "pipeline.MobiusStep.Run"
	spanZero      = "zero.Run"
	spanAnalysis  = "trace.analysis"
	spanCell      = "core.RunCtx"
	spanCluster   = "cluster.Run"
	spanStoreLoad = "planstore.Open+Load"
	spanSvcNew    = "plansvc.New"
)

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// residentMB is the process's current resident set size, read after an
// op. The run reports its median over ops: the peak is set by rare GC
// overshoots and moves by a fifth from run to run on step-warm.
func residentMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, fmt.Errorf("reading resident memory: %w", err)
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, fmt.Errorf("reading resident memory: malformed statm %q", b)
	}
	pages, err := strconv.Atoi(f[1])
	if err != nil {
		return 0, fmt.Errorf("reading resident memory: %w", err)
	}
	return float64(pages*os.Getpagesize()) / 1e6, nil
}
