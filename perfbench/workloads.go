package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"time"

	"repro/internal/ckpt"
	"repro/internal/harness"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/workload"
)

// Workload names, in the order BENCHMARK.json lists them.
const (
	wlCoreBound = "core-bound"
	wlCMP16     = "cmp16-mem"
	wlFig8      = "fig8-sweep"
)

var workloadNames = []string{wlCoreBound, wlCMP16, wlFig8}

// protocols fixes each workload's per-simulation protocol. The solo and CMP
// workloads fast-forward ten times their cycle-level window, the paper's
// shape; the fig8 sweep keeps the repository's default 1M-instruction
// fast-forward ahead of a short window, so the functional emulator,
// checkpointing and the store carry a visible share of its time.
var protocols = map[string]sim.RunOpts{
	wlCoreBound: {FastForwardInsts: 15_000_000, WarmupInsts: 200_000, MeasureInsts: 1_300_000},
	wlCMP16:     {FastForwardInsts: 500_000, WarmupInsts: 10_000, MeasureInsts: 40_000},
	wlFig8:      {FastForwardInsts: 1_000_000, WarmupInsts: 4_000, MeasureInsts: 16_000},
}

// coreBoundKernels are cache-resident kernels with L1D miss rates of 0–2%,
// so the core pipeline and branch predictor do nearly all the work.
var coreBoundKernels = []string{"gamess", "sjeng", "h264ref"}

// drawCoreBound returns the core-bound kernels in a seed-drawn order.
func drawCoreBound(seed int64) []string {
	ks := append([]string(nil), coreBoundKernels...)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(ks), func(i, j int) { ks[i], ks[j] = ks[j], ks[i] })
	return ks
}

// drawMix draws the 16-core mix's assignment of kernels to cores. The mix
// holds every memory-intensive kernel once, plus libquantum, mcf and astar
// a second time: eight cores run regular-stride kernels (streaming, strided,
// stencil), where lookahead prefetches are useful, and eight run irregular
// ones (pointer, gather, region, dp, mixed), where they are mostly wasted.
// The seed shuffles the sixteen over the cores. The kernel set itself is
// fixed so the amount of work does not vary with the seed: drawing the
// repeats by seed moved wall_s by up to 25% between seeds.
func drawMix(seed int64) []string {
	mix := []string{"libquantum", "mcf", "astar"}
	for _, w := range workload.All() {
		if w.MemoryIntensive {
			mix = append(mix, w.Name)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(mix), func(i, j int) { mix[i], mix[j] = mix[j], mix[i] })
	return mix
}

// passEnv is what one pass needs besides its workload: the protocol, the
// seed, a working directory and, on a traced pass, the span recorder.
type passEnv struct {
	opts sim.RunOpts
	seed int64
	dir  string
	tr   *tracer // nil on untraced passes
	out  *passOut
}

// system is one assembled simulation awaiting its timed run.
type system struct {
	label string
	sys   *sim.System
	pf    sim.PrefetcherKind
}

// buildCheckpoints builds each distinct kernel, fast-forwards it into a
// checkpoint, and returns the checkpoints by name.
func (e *passEnv) buildCheckpoints(names []string) (map[string]*ckpt.Checkpoint, error) {
	cps := map[string]*ckpt.Checkpoint{}
	for _, n := range names {
		if cps[n] != nil {
			continue
		}
		w, err := workload.ByName(n)
		if err != nil {
			return nil, err
		}
		e.tr.do("Workload.Build", func() error { w.Build(); return nil })
		var cp *ckpt.Checkpoint
		if err := e.tr.do("ckpt.New", func() (err error) {
			cp, err = ckpt.New(w, e.opts.FastForwardInsts)
			return err
		}); err != nil {
			return nil, fmt.Errorf("fast-forward %s: %w", n, err)
		}
		cps[n] = cp
		e.out.Layers["emu.insts"] += float64(cp.Arch.Retired)
		e.out.Layers["mem.image_mb"] += float64(cp.FootprintBytes()) / (1 << 20)
	}
	return cps, nil
}

func (e *passEnv) assemble(cfg sim.Config, cps []*ckpt.Checkpoint) (*sim.System, error) {
	var s *sim.System
	err := e.tr.do("sim.NewFromCheckpoints", func() (err error) {
		s, err = sim.NewFromCheckpoints(cfg, cps)
		return err
	})
	return s, err
}

// setupCoreBound assembles one single-core system per kernel, in the
// seed's order, on the Table II configuration without a prefetcher.
func (e *passEnv) setupCoreBound() ([]system, error) {
	order := drawCoreBound(e.seed)
	cps, err := e.buildCheckpoints(order)
	if err != nil {
		return nil, err
	}
	cfg := sim.Default(sim.PFNone)
	cfg.Cores = 1
	cfg.CPU.CPIStack = e.tr != nil
	var out []system
	for _, n := range order {
		s, err := e.assemble(cfg, []*ckpt.Checkpoint{cps[n]})
		if err != nil {
			return nil, err
		}
		out = append(out, system{label: n, sys: s, pf: cfg.Prefetcher})
	}
	return out, nil
}

// setupCMP16 assembles the seed's 16-core mix on the scale-out B-Fetch
// configuration (banked LLC, channeled DRAM).
func (e *passEnv) setupCMP16() ([]system, error) {
	mix := drawMix(e.seed)
	byName, err := e.buildCheckpoints(mix)
	if err != nil {
		return nil, err
	}
	cps := make([]*ckpt.Checkpoint, len(mix))
	for i, n := range mix {
		cps[i] = byName[n]
	}
	cfg := sim.DefaultScale(sim.PFBFetch, len(mix))
	cfg.CPU.CPIStack = e.tr != nil
	s, err := e.assemble(cfg, cps)
	if err != nil {
		return nil, err
	}
	return []system{{label: fmt.Sprint(mix), sys: s, pf: cfg.Prefetcher}}, nil
}

// runSystems is the timed region of the solo and CMP workloads: each system
// runs the warmup window, is snapshotted and reset, then runs the measured
// window. It returns committed instructions over both windows.
func (e *passEnv) runSystems(systems []system, results []sim.Result) (uint64, error) {
	var insts uint64
	cpi := e.opts.CyclesPerInst
	if cpi == 0 {
		cpi = 1000
	}
	for i, s := range systems {
		if err := e.tr.do("System.Run/warmup", func() error {
			return s.sys.Run(e.opts.WarmupInsts, e.opts.WarmupInsts*cpi)
		}); err != nil {
			return 0, fmt.Errorf("%s warmup: %w", s.label, err)
		}
		var warm sim.Result
		e.tr.do("System.Snapshot", func() error { warm = s.sys.Snapshot(); return nil })
		for _, c := range warm.Core {
			insts += c.Committed
		}
		s.sys.ResetStats()
		if err := e.tr.do("System.Run/measure", func() error {
			return s.sys.Run(e.opts.MeasureInsts, e.opts.MeasureInsts*cpi)
		}); err != nil {
			return 0, fmt.Errorf("%s measure: %w", s.label, err)
		}
		e.tr.do("System.Snapshot", func() error { results[i] = s.sys.Snapshot(); return nil })
		for _, c := range results[i].Core {
			insts += c.Committed
		}
	}
	return insts, nil
}

// runSolo is a pass of core-bound or cmp16-mem.
func (e *passEnv) runSolo(setup func() ([]system, error)) error {
	out := e.out
	t0 := time.Now() //bfetch:wallclock benchmark set-up time
	var systems []system
	if err := e.tr.do("setup", func() (err error) { systems, err = setup(); return err }); err != nil {
		return err
	}
	out.SetupS = time.Since(t0).Seconds() //bfetch:wallclock benchmark set-up time

	results := make([]sim.Result, len(systems))
	stop, err := e.startProfile()
	if err != nil {
		return err
	}
	t1 := time.Now() //bfetch:wallclock benchmark timed region
	var insts uint64
	err = e.tr.do("timed", func() (err error) { insts, err = e.runSystems(systems, results); return err })
	out.WallS = time.Since(t1).Seconds() //bfetch:wallclock benchmark timed region
	stop()
	if err != nil {
		return err
	}
	out.Insts = insts
	if out.PeakRSSMiB, err = peakRSSMiB(); err != nil {
		return err
	}

	var t tally
	for i, s := range systems {
		r := results[i]
		out.addSim(s.label, r, checkCommitted(r, e.opts.MeasureInsts))
		t.add(r, s.pf == sim.PFBFetch)
	}
	t.layers(out.Layers)
	if e.tr != nil {
		measure := e.tr.total("System.Run/measure")
		out.Layers["sim.host_ns_per_cycle"] = ratio(measure*1e9, float64(t.sysCycles))
		out.Layers["sim.host_ns_per_inst"] = ratio(measure*1e9, float64(t.committed))
	}
	return nil
}

// fig8Jobs is the job list harness fig8 submits: the no-prefetch baseline
// and the three engines, each over every kernel. The benchmark resubmits it
// after the sweep to read back each simulation's result; the runner's
// cache answers without simulating, which the pass checks.
func fig8Jobs(opts sim.RunOpts) []runner.Job {
	var jobs []runner.Job
	for _, pf := range []sim.PrefetcherKind{sim.PFNone, sim.PFStride, sim.PFSMS, sim.PFBFetch} {
		for _, n := range workload.Names() {
			jobs = append(jobs, runner.Solo(sim.Default(pf), n, opts))
		}
	}
	return jobs
}

// sweep is one fig8 run through a fresh engine on the store in dir.
type sweep struct {
	eng    *runner.Engine
	st     *store.Store
	tables []*stats.Table
}

func (e *passEnv) newSweep(workers int) (*sweep, error) {
	st, err := store.Open(filepath.Join(e.dir, "store"))
	if err != nil {
		return nil, err
	}
	eng := runner.New(workers)
	eng.SetStore(st)
	eng.SetRunReports(e.tr != nil)
	return &sweep{eng: eng, st: st}, nil
}

func (e *passEnv) runSweep(sw *sweep, span string) error {
	exp, err := harness.ByID("fig8")
	if err != nil {
		return err
	}
	p := harness.DefaultParams()
	p.Opts = e.opts
	p.Runner = sw.eng
	return e.tr.do(span, func() (err error) { sw.tables, err = exp.Run(p); return err })
}

// runFig8 is a pass of fig8-sweep: a cold sweep on a fresh store (timed),
// then a warm re-run against the same store (untimed here; a layer metric
// on traced passes) whose results must equal the cold ones.
func (e *passEnv) runFig8() error {
	out := e.out
	workers := runtime.NumCPU()
	t0 := time.Now() //bfetch:wallclock benchmark set-up time
	var cold *sweep
	if err := e.tr.do("setup", func() (err error) {
		for _, w := range workload.All() {
			e.tr.do("Workload.Build", func() error { w.Build(); return nil })
		}
		cold, err = e.newSweep(workers)
		return err
	}); err != nil {
		return err
	}
	out.SetupS = time.Since(t0).Seconds() //bfetch:wallclock benchmark set-up time

	stop, err := e.startProfile()
	if err != nil {
		return err
	}
	t1 := time.Now() //bfetch:wallclock benchmark timed region
	err = e.tr.do("timed", func() error { return e.runSweep(cold, "Experiment.Run") })
	out.WallS = time.Since(t1).Seconds() //bfetch:wallclock benchmark timed region
	stop()
	if err != nil {
		return err
	}
	if out.PeakRSSMiB, err = peakRSSMiB(); err != nil {
		return err
	}
	coldStats := cold.eng.Stats()

	jobs := fig8Jobs(e.opts)
	coldOuts := cold.eng.RunAll(jobs)
	readBack := ""
	if n := cold.eng.Stats().Runs - coldStats.Runs; n != 0 {
		readBack = fmt.Sprintf("reading back the sweep's results simulated %d jobs again: the job list differs from harness fig8", n)
	}

	warm, err := e.newSweep(workers)
	if err != nil {
		return err
	}
	t2 := time.Now() //bfetch:wallclock warm re-run time
	if err := e.runSweep(warm, "Experiment.Run/warm"); err != nil {
		return err
	}
	warmS := time.Since(t2).Seconds() //bfetch:wallclock warm re-run time
	warmOuts := warm.eng.RunAll(jobs)

	var t tally
	for i, j := range jobs {
		o := coldOuts[i]
		label := fmt.Sprintf("%s/%s", j.Cfg.Prefetcher, j.Apps[0])
		if o.Err != nil {
			out.addOp(label, "", o.Err.Error())
			continue
		}
		t.add(o.Result, j.Cfg.Prefetcher == sim.PFBFetch)
		out.Insts += e.opts.WarmupInsts // solo cores stop at their warmup target
		for _, c := range o.Result.Core {
			out.Insts += c.Committed
		}
		out.addSim(label, o.Result, checkCommitted(o.Result, e.opts.MeasureInsts))
	}
	out.addOp("fig8/readback", "", readBack)
	out.addOp("fig8/table", "", checkFig8Table(cold.tables))
	out.addOp("fig8/warm-store", "", checkWarm(coldOuts, warmOuts, cold.tables, warm.tables))

	t.layers(out.Layers)
	l := out.Layers
	l["emu.insts"] = float64(coldStats.EmuInsts)
	l["runner.runs"] = float64(coldStats.Runs)
	l["runner.ckpt_hits"] = float64(coldStats.CkptHits)
	l["runner.ckpt_misses"] = float64(coldStats.CkptMisses)
	l["runner.busy_s"] = coldStats.SimTime.Seconds()
	l["runner.worker_util"] = ratio(coldStats.SimTime.Seconds(), out.WallS*float64(cold.eng.Workers()))
	sm := cold.st.Metrics()
	l["store.writes"] = float64(sm.Writes)
	l["store.bytes_written"] = float64(sm.BytesWritten)
	l["store.read_s"] = warm.st.Metrics().ReadTime.Seconds()
	l["store.warm_s"] = warmS
	if e.tr != nil {
		var ms []float64
		for _, r := range cold.eng.RunReports() {
			ms = append(ms, r.WallSeconds*1e3)
		}
		sort.Float64s(ms)
		l["runner.job_ms_p50"] = quantile(ms, 0.50)
		l["runner.job_ms_p85"] = quantile(ms, 0.85)
		for _, n := range workload.Names() {
			key, err := store.CheckpointKey(n, e.opts.FastForwardInsts)
			if err != nil {
				return err
			}
			if cp, ok := cold.st.GetCheckpoint(key, n, e.opts.FastForwardInsts); ok {
				l["mem.image_mb"] += float64(cp.FootprintBytes()) / (1 << 20)
			}
		}
	}
	return nil
}

// checkCommitted reports a core that committed fewer than its target
// instructions in the measured window.
func checkCommitted(r sim.Result, target uint64) string {
	for i, c := range r.Core {
		if c.Committed < target {
			return fmt.Sprintf("core %d committed %d < target %d", i, c.Committed, target)
		}
	}
	return ""
}

// checkFig8Table checks the speedup table has a row per kernel and a
// Geomean row.
func checkFig8Table(tables []*stats.Table) string {
	if len(tables) == 0 {
		return "fig8 returned no tables"
	}
	rows := map[string]bool{}
	for _, r := range tables[0].Rows {
		if len(r) > 0 {
			rows[r[0]] = true
		}
	}
	for _, n := range append(workload.Names(), "Geomean") {
		if !rows[n] {
			return fmt.Sprintf("fig8 table has no %q row", n)
		}
	}
	return ""
}

// checkWarm checks the warm re-run answered every job with the cold result.
func checkWarm(cold, warm []runner.Outcome, coldT, warmT []*stats.Table) string {
	for i := range cold {
		if !exportedEqual(reflect.ValueOf(cold[i]), reflect.ValueOf(warm[i])) {
			return fmt.Sprintf("job %d: warm-store result differs from the cold one", i)
		}
	}
	if !reflect.DeepEqual(coldT, warmT) {
		return "warm-store tables differ from the cold ones"
	}
	return ""
}

// exportedEqual is reflect.DeepEqual restricted to exported struct fields.
// The store deliberately does not serialize unexported model state (the
// DRAM channel's next-free cycle), so a result read back from disk differs
// from the computed one only there.
func exportedEqual(a, b reflect.Value) bool {
	if a.Kind() != reflect.Struct {
		return reflect.DeepEqual(a.Interface(), b.Interface())
	}
	for i := 0; i < a.NumField(); i++ {
		if a.Type().Field(i).IsExported() && !exportedEqual(a.Field(i), b.Field(i)) {
			return false
		}
	}
	return true
}
