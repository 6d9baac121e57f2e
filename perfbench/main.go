// Command perfbench is the repository benchmark: it times the simulator from
// outside, through the public functions of each module, on three workloads,
// and checks every simulation's output while doing so.
//
// Run it from the repository root through its build script:
//
//	bash perfbench/run.sh --workload core-bound --seed 1 --seconds 20 --trace 0
//
// Every pass of a workload runs in a fresh child process, so set-up time and
// peak memory are those of a cold process: the once-per-process caches
// (workload builds, emulator threaded code, the runner's checkpoint memo)
// start empty in every pass. The parent repeats passes until --seconds have
// passed, checks that every simulation's counters repeat bit for bit, and
// prints medians as the last line of standard output. With --trace 1 it also
// runs one traced pass (spans, a CPU profile folded by package, CPI stacks)
// and prints the per-layer metrics instead.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// metric is one reported metric's name and unit.
type metric struct{ Name, Unit string }

// endToEnd are the metrics an untraced run prints; BENCHMARK.json lists the
// same names, units and bounds.
var endToEnd = []metric{
	{"sim_kips", "kinst/s"},
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the metrics a traced run prints, named after the module they
// measure. A layer the workload does not reach reads 0.
var perLayer = func() []metric {
	m := []metric{
		{"workload.build_s", "s"},
		{"ckpt.ff_s", "s"},
		{"emu.insts", "count"},
		{"emu.minsts_per_s", "Minst/s"},
		{"mem.image_mb", "MiB"},
		{"sim.assemble_s", "s"},
		{"sim.warmup_s", "s"},
		{"sim.measure_s", "s"},
		{"sim.host_ns_per_cycle", "ns"},
		{"sim.host_ns_per_inst", "ns"},
		{"sim.cycles", "cycles"},
		{"cpu.committed", "count"},
		{"cpu.ipc", "inst/cycle"},
		{"branch.mispredict_rate", "ratio"},
		{"cache.l1d_accesses", "count"},
		{"cache.l1d_miss_rate", "ratio"},
		{"cache.llc_accesses", "count"},
		{"cache.llc_miss_rate", "ratio"},
		{"cache.dram_fills", "count"},
		{"cache.dram_stall_cycles", "cycles"},
		{"core.pf_issued", "count"},
		{"core.pf_useful_ratio", "ratio"},
		{"core.pf_dropped_ratio", "ratio"},
		{"runner.runs", "count"},
		{"runner.ckpt_hits", "count"},
		{"runner.ckpt_misses", "count"},
		{"runner.busy_s", "s"},
		{"runner.worker_util", "ratio"},
		{"runner.job_ms_p50", "ms"},
		{"runner.job_ms_p85", "ms"},
		{"store.writes", "count"},
		{"store.bytes_written", "bytes"},
		{"store.read_s", "s"},
		{"store.warm_s", "s"},
		{"runtime.alloc_mb", "MiB"},
		{"runtime.gc_cycles", "count"},
		{"runtime.gc_pause_ms", "ms"},
		{"trace.overhead_pct", "%"},
	}
	for _, l := range profiledLayers {
		m = append(m, metric{l + ".self_share", "share"})
	}
	for _, b := range obs.CPIBucketNames {
		m = append(m, metric{"cpi." + b, "share"})
	}
	return m
}()

func main() {
	var (
		wl      = flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
		seed    = flag.Int64("seed", 1, "seed drawing the workload's inputs")
		seconds = flag.Int("seconds", 20, "seconds to keep running passes")
		trace   = flag.Int("trace", 0, "1 runs a traced pass and prints per-layer metrics")
		pass    = flag.Bool("pass", false, "run one pass in this process and print it as JSON (used by the parent)")
		traced  = flag.Bool("traced", false, "with -pass: record spans, a CPU profile and CPI stacks")
		dir     = flag.String("dir", "", "with -pass: working directory for the pass")
	)
	flag.Parse()
	if *pass {
		if err := childPass(*wl, *seed, *traced, *dir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench pass:", err)
			os.Exit(1)
		}
		return
	}
	if _, ok := protocols[*wl]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *wl, strings.Join(workloadNames, ", "))
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be at least 1 and -trace 0 or 1")
		os.Exit(2)
	}
	if err := parent(*wl, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// childPass runs one pass and prints it as one JSON line.
func childPass(wl string, seed int64, traced bool, dir string) error {
	opts, ok := protocols[wl]
	if !ok {
		return fmt.Errorf("unknown workload %q", wl)
	}
	env := &passEnv{opts: opts, seed: seed, dir: dir}
	if traced {
		env.tr = newTracer()
	}
	out, err := runPass(wl, env)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

// parent runs passes in child processes for the given seconds, then prints
// the run's facts and its result line.
func parent(wl string, seed int64, seconds int, trace bool) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	work, err := filepath.Abs(filepath.Join(".bench_build", "work", fmt.Sprintf("%s-%d", wl, os.Getpid())))
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	var r run
	start := time.Now() //bfetch:wallclock run length
	budget := time.Duration(seconds) * time.Second
	minPasses := 3
	if trace {
		// Half the time on untraced passes, to compare the traced pass's
		// digest and cost against, then one traced pass.
		budget /= 2
		minPasses = 2
	}
	for i := 0; i < minPasses || time.Since(start) < budget; i++ { //bfetch:wallclock run length
		p, err := spawn(self, wl, seed, false, filepath.Join(work, fmt.Sprint(i)))
		r.add(p, err, false)
	}
	if trace {
		p, err := spawn(self, wl, seed, true, filepath.Join(work, "traced"))
		r.add(p, err, true)
	}
	printFacts(wl, seed, r.digest())
	failed := r.failed()
	var metrics map[string]valueUnit
	if trace {
		metrics, err = r.layerMetrics()
		if err == nil {
			err = writeTrace(wl, seed, r.traced)
		}
	} else {
		metrics, err = r.endToEndMetrics()
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(result{Correct: failed == 0, Attempted: r.attempted(), Failed: failed, Metrics: metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// spawn runs one pass in a child process of this binary.
func spawn(self, wl string, seed int64, traced bool, dir string) (*passOut, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(filepath.Join(dir, "store"))
	cmd := exec.Command(self, "-pass", "-workload", wl, "-seed", fmt.Sprint(seed),
		fmt.Sprintf("-traced=%t", traced), "-dir", dir)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, io.MultiWriter(os.Stderr, &stderr)
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("pass failed: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	var out passOut
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		return nil, fmt.Errorf("pass output: %w", err)
	}
	kind := "untraced"
	if traced {
		kind = "traced"
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s %s pass: setup %.3fs wall %.3fs %d insts rss %.1f MiB\n",
		wl, kind, out.SetupS, out.WallS, out.Insts, out.PeakRSSMiB)
	return &out, nil
}

// run accumulates a run's passes and their checks. Every simulation and
// every whole-pass check is one operation; a pass that failed to run at all
// is one failed operation. Passes with any failed operation are left out of
// the timing medians.
type run struct {
	passes  []*passOut // untraced passes that ran, in order
	crashed []string   // errors of passes that did not run
	traced  *passOut
}

// add records a pass, checking its operations against the first
// untraced pass.
func (r *run) add(p *passOut, err error, traced bool) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		r.crashed = append(r.crashed, err.Error())
		return
	}
	why := "differs from the first pass"
	if traced {
		why = "traced digest differs from the untraced one"
	}
	if len(r.passes) > 0 {
		crossCheck(r.passes[0], p, why)
	}
	if traced {
		r.traced = p
	} else {
		r.passes = append(r.passes, p)
	}
}

// crossCheck marks each operation of p whose digest or name differs from
// the same operation of ref.
func crossCheck(ref, p *passOut, why string) {
	if len(p.Ops) != len(ref.Ops) {
		p.Ops = append(p.Ops, op{Name: "ops", Err: fmt.Sprintf("%d operations, first pass had %d", len(p.Ops), len(ref.Ops))})
		return
	}
	for i := range p.Ops {
		if p.Ops[i].Err == "" && (p.Ops[i].Name != ref.Ops[i].Name || p.Ops[i].Digest != ref.Ops[i].Digest) {
			p.Ops[i].Err = why
		}
	}
}

func (r *run) all() []*passOut {
	if r.traced != nil {
		return append(append([]*passOut(nil), r.passes...), r.traced)
	}
	return r.passes
}

func (r *run) attempted() int {
	n := len(r.crashed)
	for _, p := range r.all() {
		n += len(p.Ops)
	}
	return n
}

func (r *run) failed() int {
	n := len(r.crashed)
	for _, p := range r.all() {
		for _, o := range p.Ops {
			if o.Err != "" {
				fmt.Fprintf(os.Stderr, "perfbench: failed: %s: %s\n", o.Name, o.Err)
				n++
			}
		}
	}
	return n
}

// good returns the untraced passes whose every operation passed.
func (r *run) good() []*passOut {
	var out []*passOut
	for _, p := range r.passes {
		ok := true
		for _, o := range p.Ops {
			ok = ok && o.Err == ""
		}
		if ok {
			out = append(out, p)
		}
	}
	return out
}

// digest is the run's result digest: a hash of the first pass's
// per-simulation digests. A declared model change moves it; it is printed
// for comparing commits, not graded.
func (r *run) digest() string {
	if len(r.passes) == 0 {
		return ""
	}
	h := sha256.New()
	for _, o := range r.passes[0].Ops {
		fmt.Fprintf(h, "%s %s\n", o.Name, o.Digest)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

// endToEndMetrics are the medians over the passes whose checks all passed.
func (r *run) endToEndMetrics() (map[string]valueUnit, error) {
	good := r.good()
	if len(good) == 0 {
		// Nothing to leave out: report every pass that ran, under the
		// result line's correct=false.
		good = r.passes
	}
	if len(good) == 0 {
		return nil, fmt.Errorf("no pass ran")
	}
	pick := map[string]func(p *passOut) float64{
		"sim_kips":    func(p *passOut) float64 { return float64(p.Insts) / p.WallS / 1e3 },
		"wall_s":      func(p *passOut) float64 { return p.WallS },
		"setup_s":     func(p *passOut) float64 { return p.SetupS },
		"peak_rss_mb": func(p *passOut) float64 { return p.PeakRSSMiB },
	}
	out := map[string]valueUnit{}
	for _, m := range endToEnd {
		var xs []float64
		for _, p := range good {
			xs = append(xs, pick[m.Name](p))
		}
		out[m.Name] = valueUnit{median(xs), m.Unit}
	}
	return out, nil
}

// layerMetrics are the traced pass's per-layer values, plus the tracing
// overhead against the untraced passes' median wall time.
func (r *run) layerMetrics() (map[string]valueUnit, error) {
	traced := r.traced
	if traced == nil {
		return nil, fmt.Errorf("the traced pass did not run")
	}
	var walls []float64
	for _, p := range r.passes {
		walls = append(walls, p.WallS)
	}
	if len(walls) == 0 {
		return nil, fmt.Errorf("no untraced pass ran to compare the traced one with")
	}
	traced.Layers["trace.overhead_pct"] = (traced.WallS/median(walls) - 1) * 100
	out := map[string]valueUnit{}
	for _, m := range perLayer {
		out[m.Name] = valueUnit{traced.Layers[m.Name], m.Unit}
	}
	return out, nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// printFacts prints the run's provenance and its result digest as one JSON
// line ahead of the result line. A build outside a git checkout carries no
// revision.
func printFacts(wl string, seed int64, digest string) {
	facts := map[string]any{
		"workload":      wl,
		"seed":          seed,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"result_digest": digest,
		"process":       "fresh child process per pass: workload build, threaded-code and checkpoint caches start cold",
		"vcs.revision":  "unavailable",
		"vcs.modified":  "unavailable",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" || s.Key == "vcs.modified" {
				facts[s.Key] = s.Value
			}
		}
	}
	b, _ := json.Marshal(facts) // map of strings and numbers
	fmt.Println(string(b))
}

// writeTrace writes the traced pass's spans next to the build output.
func writeTrace(wl string, seed int64, p *passOut) error {
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(p.Spans, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.spans.json", wl, seed))
	fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
	return os.WriteFile(path, b, 0o644)
}
