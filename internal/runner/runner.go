// Package runner executes batches of independent simulations across a
// worker pool, with a memoizing run-cache on top.
//
// The paper's evaluation is hundreds of fully independent simulation points
// (18 kernels × several prefetcher configs × sensitivity sweeps), and many
// points repeat across figures — every speedup figure divides by the same
// no-prefetch baseline. The Engine exploits both properties: jobs fan out
// over GOMAXPROCS workers, and a fingerprint-keyed cache ensures each
// distinct (config, workload, protocol) point simulates exactly once per
// Engine lifetime, with duplicate in-flight submissions coalesced
// singleflight-style. Results are assembled in submission order, so batch
// output is byte-identical regardless of worker count or completion order.
//
// Jobs whose protocol includes a fast-forward additionally share a
// checkpoint cache: the functional prefix of each (workload, FFInsts) pair
// is emulated exactly once per Engine lifetime (singleflight, like the
// run-cache) and every simulation of that workload boots from a
// copy-on-write restore of the cached checkpoint — however many prefetcher
// kinds, depths or bandwidth points sweep over it. Restored runs are
// bit-identical to inline fast-forwarding (pinned by TestCheckpointedRunEquivalence).
package runner

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ckpt"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/store"
)

// Job is one simulation point: a system configuration running the named
// applications (one per core) under the given measurement protocol.
type Job struct {
	Cfg  sim.Config
	Apps []string
	Opts sim.RunOpts
}

// Solo is a single-core job running one application alone.
func Solo(cfg sim.Config, app string, opts sim.RunOpts) Job {
	return Job{Cfg: cfg, Apps: []string{app}, Opts: opts}
}

// Multi is a CMP job running one application per core.
func Multi(cfg sim.Config, apps []string, opts sim.RunOpts) Job {
	return Job{Cfg: cfg, Apps: apps, Opts: opts}
}

// Outcome is one job's result; exactly one of Result/Err is meaningful.
type Outcome struct {
	Result sim.Result
	Err    error
}

// Stats counts the Engine's cache and execution activity. Durable-store
// traffic is counted by the store itself (store.Metrics): a job or
// checkpoint answered from disk counts here in neither the hit nor the miss
// column, since it was not in memory and nothing was computed.
type Stats struct {
	Hits   uint64 // jobs answered from the cache (or coalesced in flight)
	Misses uint64 // cacheable jobs that had to simulate
	Runs   uint64 // simulations actually executed (misses + uncacheable)

	// Checkpoint-cache accounting for fast-forward protocols: each
	// (workload, FFInsts) prefix is emulated once (a miss); every further
	// simulation needing it restores copy-on-write (a hit).
	CkptHits   uint64
	CkptMisses uint64

	// Simulation throughput accounting, summed over executed runs (cache
	// hits contribute nothing — no simulation happened). Cycles and
	// instructions cover the measured window of every core.
	SimCycles uint64        // core-cycles simulated
	SimInsts  uint64        // instructions committed
	SimTime   time.Duration // wall time spent inside sim.Run or sim.RunCheckpointed

	// EmuInsts counts functionally emulated instructions: fast-forward
	// prefixes executed for checkpoint-cache misses, plus any profile work
	// reported via AddEmuInsts (the emulator-driven characterization
	// experiments and the FOA mix-selection profiles).
	EmuInsts uint64
}

// Engine schedules simulation jobs over a bounded worker pool and memoizes
// their results. The zero value is not usable; construct with New. An
// Engine is safe for concurrent use and needs no shutdown: workers live
// only for the duration of each RunAll call.
type Engine struct {
	workers int
	store   *store.Store // durable second tier; nil = memory-only

	results memo[sim.Result]
	ckpts   memo[*ckpt.Checkpoint]
	once    memo[any] // Once: per-engine non-simulation work

	hits, misses, runs  atomic.Uint64
	ckHits, ckMisses    atomic.Uint64
	simCycles, simInsts atomic.Uint64
	emuInsts            atomic.Uint64
	simNanos            atomic.Int64

	// stream, when set, receives live NDJSON events: a progress event per
	// finished job, and a run summary plus time-series rows per executed
	// simulation. Set before submitting jobs; a nil hub publishes nothing.
	stream *obs.StreamHub

	// Batch progress, for live introspection: jobs submitted through
	// RunAll/Run and jobs finished (from cache or simulation).
	jobsTotal, jobsDone atomic.Uint64

	repMu       sync.Mutex
	keepReports bool
	reports     []obs.RunReport
}

// memo is a singleflight map: the first caller of a key runs fn, and every
// concurrent or later caller of that key waits for and shares its value and
// error. A waiter cannot deadlock: entries never depend on one another, so
// the computing goroutine always makes progress. The zero value is ready.
type memo[V any] struct {
	mu sync.Mutex
	m  map[string]*memoEntry[V]
}

// memoEntry is one memoized value; done closes once v/err are set.
type memoEntry[V any] struct {
	done chan struct{}
	v    V
	err  error
}

// do returns key's value, computing it with fn on first request; shared
// reports that another caller computed it.
func (m *memo[V]) do(key string, fn func() (V, error)) (v V, err error, shared bool) {
	m.mu.Lock()
	if ent, ok := m.m[key]; ok {
		m.mu.Unlock()
		<-ent.done
		return ent.v, ent.err, true
	}
	if m.m == nil {
		m.m = make(map[string]*memoEntry[V])
	}
	ent := &memoEntry[V]{done: make(chan struct{})}
	m.m[key] = ent
	m.mu.Unlock()
	ent.v, ent.err = fn()
	close(ent.done)
	return ent.v, ent.err, false
}

// New returns an Engine running up to workers simulations at once;
// workers <= 0 selects GOMAXPROCS. A one-worker Engine executes every job
// inline on the caller's goroutine.
func New(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{workers: workers}
}

// Workers reports the pool size.
func (e *Engine) Workers() int { return e.workers }

// SetStore attaches a durable on-disk store (internal/store) as the second
// tier of the lookup: memory singleflight → disk store → compute, with
// computed results and checkpoints written back. Attach before submitting
// jobs; a nil store detaches. Store failures (unreadable entries, write
// errors) are counted in store.Metrics and absorbed — the disk tier can
// only make runs cheaper, never wronger, because entries are keyed by the
// same fingerprint that guarantees byte-identical results and validated
// end-to-end on read.
func (e *Engine) SetStore(s *store.Store) { e.store = s }

// SetRunReports enables collection of one obs.RunReport per executed
// simulation (cache hits re-simulate nothing and contribute none). Off by
// default — reports retain full metrics snapshots.
func (e *Engine) SetRunReports(on bool) {
	e.repMu.Lock()
	e.keepReports = on
	if !on {
		e.reports = nil
	}
	e.repMu.Unlock()
}

// RunReports returns the collected reports, in completion order (which
// varies with scheduling; consumers needing determinism sort or key them).
func (e *Engine) RunReports() []obs.RunReport {
	e.repMu.Lock()
	defer e.repMu.Unlock()
	out := make([]obs.RunReport, len(e.reports))
	copy(out, e.reports)
	return out
}

// Progress reports jobs finished and jobs submitted — the run-queue gauge
// the live introspection endpoint polls.
func (e *Engine) Progress() (done, total uint64) {
	return e.jobsDone.Load(), e.jobsTotal.Load()
}

// SetStream attaches a live event hub: each finished job publishes a
// progress event, and each executed simulation publishes a run summary
// followed by its interval time-series rows. Attach before submitting jobs;
// nil detaches. Publishing is non-blocking (the hub drops events to slow
// subscribers), so streaming never back-pressures the batch.
func (e *Engine) SetStream(h *obs.StreamHub) { e.stream = h }

// Stats returns a snapshot of the cache and throughput counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Hits: e.hits.Load(), Misses: e.misses.Load(), Runs: e.runs.Load(),
		CkptHits: e.ckHits.Load(), CkptMisses: e.ckMisses.Load(),
		SimCycles: e.simCycles.Load(), SimInsts: e.simInsts.Load(),
		SimTime:  time.Duration(e.simNanos.Load()),
		EmuInsts: e.emuInsts.Load(),
	}
}

// AddEmuInsts reports functionally emulated instructions executed outside
// the engine's own fast-forward path — the characterization experiments
// (Figures 3 and 7) and the FOA mix-selection profiles drive the emulator
// directly through Map and account for their work here, so the batch's
// emulated-instruction count is the whole of it.
func (e *Engine) AddEmuInsts(n uint64) { e.emuInsts.Add(n) }

// Once returns key's value, computing it with fn on the first request and
// sharing it (and its error) with every later or concurrent caller. It
// memoizes experiment work that is not a simulation but is shared across
// experiments — the FOA mix-selection profiles — so a batch pays for it
// once per engine.
func (e *Engine) Once(key string, fn func() (any, error)) (any, error) {
	v, err, _ := e.once.do(key, fn)
	return v, err
}

// Run executes one job (through the cache).
func (e *Engine) Run(job Job) (sim.Result, error) {
	o := e.runJob(job)
	return o.Result, o.Err
}

// RunAll executes the batch and returns one Outcome per job, in job order.
// Identical jobs — within the batch or vs. earlier batches — simulate once.
func (e *Engine) RunAll(jobs []Job) []Outcome {
	e.jobsTotal.Add(uint64(len(jobs)))
	out := make([]Outcome, len(jobs))
	if e.workers == 1 || len(jobs) <= 1 {
		for i, j := range jobs {
			out[i] = e.runJob(j)
		}
	} else {
		e.fanOut(len(jobs), func(i int) { out[i] = e.runJob(jobs[i]) })
	}
	return out
}

// Map runs fn(0..n-1) across the pool and returns the lowest-index error.
// It is the fan-out for experiment work that is not a simulation — the
// emulator-driven functional profiles; every simulation goes through
// Run/RunAll. Results must be written into index-addressed slots by fn,
// which keeps assembly deterministic.
func (e *Engine) Map(n int, fn func(i int) error) error {
	errs := make([]error, n)
	if e.workers == 1 || n <= 1 {
		for i := 0; i < n; i++ {
			errs[i] = fn(i)
		}
	} else {
		e.fanOut(n, func(i int) { errs[i] = fn(i) })
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// fanOut applies fn to every index using up to e.workers goroutines.
func (e *Engine) fanOut(n int, fn func(i int)) {
	workers := e.workers
	if workers > n {
		workers = n
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// runJob executes one job through the cache: memory singleflight, then the
// durable store, then simulation with write-back.
func (e *Engine) runJob(j Job) Outcome {
	defer func() {
		done := e.jobsDone.Add(1)
		if e.stream != nil {
			e.stream.Publish(obs.StreamProgress{Event: "progress", JobsDone: done, JobsTotal: e.jobsTotal.Load()})
		}
	}()
	key, cacheable := Fingerprint(j.Cfg, j.Apps, j.Opts)
	if !cacheable {
		res, err := e.execute(j)
		return Outcome{Result: res, Err: err}
	}
	res, err, shared := e.results.do(key, func() (sim.Result, error) {
		// A validated store entry carries the byte-identical result this
		// job would compute (same fingerprint, same schema), so it answers
		// the job without simulating anything.
		if e.store != nil {
			if res, ok := e.store.GetResult(key); ok {
				return res, nil
			}
		}
		res, err := e.execute(j)
		e.misses.Add(1)
		if e.store != nil && err == nil {
			_ = e.store.PutResult(key, res) // failures count in store.Metrics().WriteErrs
		}
		return res, err
	})
	if shared {
		e.hits.Add(1)
	}
	return Outcome{Result: res, Err: err}
}

// execute performs the actual simulation. Fast-forward protocols boot from
// the engine's checkpoint cache so each workload's prefix is emulated once.
func (e *Engine) execute(j Job) (sim.Result, error) {
	start := time.Now() //bfetch:wallclock per-run elapsed time, reported only
	var res sim.Result
	var err error
	if ff := j.Opts.FastForwardInsts; ff > 0 {
		var cps []*ckpt.Checkpoint
		if cps, err = e.checkpoints(j.Apps, ff); err == nil {
			res, err = sim.RunCheckpointed(j.Cfg, cps, j.Opts)
		}
	} else {
		res, err = sim.Run(j.Cfg, j.Apps, j.Opts)
	}
	elapsed := time.Since(start) //bfetch:wallclock feeds simNanos throughput stats
	e.runs.Add(1)
	e.simNanos.Add(int64(elapsed))
	if err == nil {
		var cycles, insts uint64
		for _, cs := range res.Core {
			cycles += cs.Cycles
			insts += cs.Committed
		}
		e.simCycles.Add(cycles)
		e.simInsts.Add(insts)
		e.report(j, res, elapsed)
		e.publishRun(j, res, insts, elapsed)
	}
	return res, err
}

// Report builds the observability document for one finished run of j,
// elapsed being the wall time spent simulating it.
func Report(j Job, res sim.Result, elapsed time.Duration) obs.RunReport {
	var insts uint64
	for _, cs := range res.Core {
		insts += cs.Committed
	}
	r := obs.RunReport{
		Engine:      string(j.Cfg.Prefetcher),
		Apps:        append([]string(nil), j.Apps...),
		Cycles:      res.Cycles,
		Insts:       insts,
		IPC:         append([]float64(nil), res.IPC...),
		PerCore:     append([]obs.LifecycleStats(nil), res.Lifecycle...),
		Metrics:     res.Metrics,
		TS:          res.TS,
		WallSeconds: elapsed.Seconds(),
	}
	r.Finalize()
	return r
}

// report records one executed run's observability document, if collection
// is enabled.
func (e *Engine) report(j Job, res sim.Result, elapsed time.Duration) {
	e.repMu.Lock()
	defer e.repMu.Unlock()
	if e.keepReports {
		e.reports = append(e.reports, Report(j, res, elapsed))
	}
}

// publishRun streams one executed run: a summary event, then the run's
// interval time-series rows (first row carries the column schema). No-op
// without an attached hub.
func (e *Engine) publishRun(j Job, res sim.Result, insts uint64, elapsed time.Duration) {
	if e.stream == nil {
		return
	}
	engine := string(j.Cfg.Prefetcher)
	apps := append([]string(nil), j.Apps...)
	run := obs.StreamRun{
		Event: "run", Engine: engine, Apps: apps,
		Cycles: res.Cycles, Insts: insts,
		WallSeconds: elapsed.Seconds(),
	}
	if res.Cycles > 0 {
		run.IPC = float64(insts) / float64(res.Cycles)
	}
	e.stream.Publish(run)
	if ts := res.TS; ts != nil {
		for k, row := range ts.Rows {
			ev := obs.StreamSample{
				Event: "sample", Engine: engine, Apps: apps,
				Cycle: ts.Base + uint64(k+1)*ts.Interval,
				Row:   row,
			}
			if k == 0 {
				ev.Names = ts.Names
			}
			e.stream.Publish(ev)
		}
	}
}

// checkpoints resolves one cached checkpoint per application.
func (e *Engine) checkpoints(apps []string, ff uint64) ([]*ckpt.Checkpoint, error) {
	cps := make([]*ckpt.Checkpoint, len(apps))
	for i, name := range apps {
		cp, err := e.checkpoint(name, ff)
		if err != nil {
			return nil, err
		}
		cps[i] = cp
	}
	return cps, nil
}

// checkpoint returns the memoized fast-forward checkpoint for one
// (workload, ffInsts) point: from memory, else from the durable store, else
// emulated and written back. Workload names are a sound cache key because
// workload builds are deterministic (the workload package's contract — the
// same property the run-cache fingerprint relies on).
func (e *Engine) checkpoint(name string, ff uint64) (*ckpt.Checkpoint, error) {
	cp, err, shared := e.ckpts.do(fmt.Sprintf("%s|%d", name, ff), func() (*ckpt.Checkpoint, error) {
		// The store key is content-addressed over the workload's built
		// program and initial image, so a changed kernel generator can
		// never resurrect stale state.
		var storeKey string
		if e.store != nil {
			if k, err := store.CheckpointKey(name, ff); err == nil {
				storeKey = k
				if cp, ok := e.store.GetCheckpoint(storeKey, name, ff); ok {
					return cp, nil
				}
			}
		}
		cp, err := ckpt.ByName(name, ff)
		e.ckMisses.Add(1)
		if err != nil {
			return nil, err
		}
		e.emuInsts.Add(cp.Arch.Retired)
		if storeKey != "" {
			_ = e.store.PutCheckpoint(storeKey, cp) // failures count in store.Metrics().WriteErrs
		}
		return cp, nil
	})
	if shared {
		e.ckHits.Add(1)
	}
	return cp, err
}
