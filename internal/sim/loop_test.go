package sim

import (
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/isb"
	"repro/internal/sms"
	"repro/internal/stems"
	"repro/internal/workload"
)

// eqOpts is small enough to run every prefetcher twice but long enough to
// exercise warmup, ResetStats, squashes, and DRAM contention.
var eqOpts = RunOpts{WarmupInsts: 10_000, MeasureInsts: 40_000}

// mix16 tiles eight memory-diverse workloads twice: the 16-core CMP mix the
// scale-out engine targets. Every core is active the whole run, so the
// banked LLC and the channeled DRAM see sustained same-cycle contention.
var mix16 = []string{
	"mcf", "lbm", "milc", "astar", "libquantum", "soplex", "sphinx", "leslie3d",
	"mcf", "lbm", "milc", "astar", "libquantum", "soplex", "sphinx", "leslie3d",
}

// parOpts is small enough to sweep seven engines on both loops but long
// enough to fill the port queues, bank MSHRs and DRAM channel slots.
var parOpts = RunOpts{WarmupInsts: 2_000, MeasureInsts: 6_000}

// runLoop is Run on the chosen clock loop: the naive reference loop when
// naive is set, the event loop every other run takes otherwise.
func runLoop(cfg Config, apps []string, opts RunOpts, naive bool) (Result, error) {
	res, _, err := runLoopTicks(cfg, apps, opts, naive)
	return res, err
}

// runLoopTicks is runLoop that also returns the system's ticked
// core-cycles (System.TickedCycles) over warmup and measurement.
func runLoopTicks(cfg Config, apps []string, opts RunOpts, naive bool) (Result, uint64, error) {
	s, err := NewForRun(cfg, apps, opts)
	if err != nil {
		return Result{}, 0, err
	}
	s.naive = naive
	res, err := runProtocol(s, opts)
	return res, s.TickedCycles(), err
}

// loopName labels a runLoop leg in failure messages.
func loopName(naive bool) string {
	if naive {
		return "naive"
	}
	return "event"
}

// TestLoopEquivalence is the event-driven clock's contract: for every
// prefetcher kind — the paper's four, both heavy-weight extensions, and a
// multi-programmed CMP mix — the skipping loop must reproduce the naive
// loop's Result snapshot bit for bit.
func TestLoopEquivalence(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		apps []string
	}{
		{"none", Default(PFNone), []string{"libquantum"}},
		{"stride", Default(PFStride), []string{"libquantum"}},
		{"sms", Default(PFSMS), []string{"milc"}},
		{"bfetch", Default(PFBFetch), []string{"libquantum"}},
		{"isb", Default(PFISB), []string{"mcf"}},
		{"stems", Default(PFSTeMS), []string{"milc"}},
		{"cmp-mix", Default(PFBFetch), []string{"libquantum", "mcf", "milc", "gamess"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			naive, errN := runLoop(tc.cfg, tc.apps, eqOpts, true)
			event, errE := runLoop(tc.cfg, tc.apps, eqOpts, false)
			if (errN == nil) != (errE == nil) {
				t.Fatalf("error mismatch: naive %v, event %v", errN, errE)
			}
			if errN != nil {
				t.Fatalf("run failed: %v", errN)
			}
			if !reflect.DeepEqual(naive, event) {
				t.Errorf("snapshots diverge\nnaive: %+v\nevent: %+v", naive, event)
			}
		})
	}
}

// TestSchedInvariantsMix16 runs cpu.Core.CheckSched after every tick of the
// 16-core B-Fetch mix, on both clock loops: the bitmaps the schedulers trust
// name live entries in the matching state, and pendSettled — which lets a
// core with only settled blocked loads sleep — counts exactly the pending
// loads whose verdict is current. The two loops must also agree bit for bit.
func TestSchedInvariantsMix16(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := DefaultScale(PFBFetch, len(mix16))
	var runs [2]Result
	for k, naive := range []bool{true, false} {
		s, err := NewForRun(cfg, mix16, parOpts)
		if err != nil {
			t.Fatal(err)
		}
		s.naive = naive
		var bad error
		checks := 0
		s.afterTick = func(c *cpu.Core) {
			checks++
			if bad == nil {
				bad = c.CheckSched()
			}
		}
		res, err := runProtocol(s, parOpts)
		if err != nil {
			t.Fatalf("%s: %v", loopName(naive), err)
		}
		if bad != nil {
			t.Fatalf("%s: %v", loopName(naive), bad)
		}
		if uint64(checks) != s.TickedCycles() {
			t.Errorf("%s: checked %d ticks, TickedCycles %d", loopName(naive), checks, s.TickedCycles())
		}
		t.Logf("%s: %d ticked core-cycles", loopName(naive), s.TickedCycles())
		runs[k] = res
	}
	if !reflect.DeepEqual(runs[0], runs[1]) {
		t.Error("mix16 snapshots diverge across loops")
	}
}

// TestLoopEquivalenceOnError checks the cycle-bound path: when a run cannot
// reach its instruction budget, both loops must fail with the same error and
// identical partial counters — solo, and on a 4-core banked mix where the
// error names the furthest-lagging core. The B-Fetch cases pin the bound as
// the horizon of the engine run-ahead (cpu.Core.NextEvent): a busy engine
// ticked past the bound would count prefetch drops the naive loop never
// reaches; with the bound dropped from the horizon, both diverge.
func TestLoopEquivalenceOnError(t *testing.T) {
	cases := []struct {
		cfg       Config
		apps      []string
		maxCycles uint64
	}{
		{Default(PFNone), []string{"libquantum"}, 50_000},
		{DefaultScale(PFNone, 4), []string{"libquantum", "mcf", "milc", "lbm"}, 30_000},
		{Default(PFBFetch), []string{"mcf"}, 20_003},
		{DefaultScale(PFBFetch, 4), []string{"libquantum", "mcf", "milc", "lbm"}, 30_001},
	}
	for _, tc := range cases {
		run := func(naive bool) (Result, error) {
			s, err := buildSystem(tc.cfg, tc.apps)
			if err != nil {
				t.Fatal(err)
			}
			s.naive = naive
			err = s.Run(1<<40, tc.maxCycles) // unreachable budget: must hit the bound
			return s.Snapshot(), err
		}

		naive, errN := run(true)
		event, errE := run(false)
		if errN == nil || errE == nil {
			t.Fatalf("%v: expected both loops to hit the cycle bound (naive %v, event %v)", tc.apps, errN, errE)
		}
		if errN.Error() != errE.Error() {
			t.Errorf("%v: error text diverges:\nnaive: %v\nevent: %v", tc.apps, errN, errE)
		}
		if !reflect.DeepEqual(naive, event) {
			t.Errorf("%v: partial snapshots diverge\nnaive: %+v\nevent: %+v", tc.apps, naive, event)
		}
	}
}

func buildSystem(cfg Config, appNames []string) (*System, error) {
	apps := make([]workload.Workload, len(appNames))
	for i, name := range appNames {
		w, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		apps[i] = w
	}
	cfg.Cores = len(apps)
	return New(cfg, apps)
}

// TestResetStatsZeroesEverything audits the warmup/measure boundary: after
// ResetStats, a Snapshot must carry no trace of the warmup phase — core,
// cache, DRAM, clock, and prefetcher-internal counters included.
func TestResetStatsZeroesEverything(t *testing.T) {
	kinds := []PrefetcherKind{PFNone, PFStride, PFSMS, PFBFetch, PFISB, PFSTeMS}
	for _, kind := range kinds {
		t.Run(string(kind), func(t *testing.T) {
			s, err := buildSystem(Default(kind), []string{"libquantum"})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Run(20_000, 20_000_000); err != nil {
				t.Fatal(err)
			}
			s.ResetStats()
			res := s.Snapshot()

			if res.Cycles != 0 {
				t.Errorf("Cycles = %d after reset", res.Cycles)
			}
			if res.Core[0] != (cpu.Stats{}) {
				t.Errorf("core stats survive reset: %+v", res.Core[0])
			}
			if res.L1D[0] != (cache.Stats{}) {
				t.Errorf("L1D stats survive reset: %+v", res.L1D[0])
			}
			if res.LLC != (cache.Stats{}) {
				t.Errorf("LLC stats survive reset: %+v", res.LLC)
			}
			d := res.DRAM
			if d.DemandFills != 0 || d.PrefetchFills != 0 || d.Writebacks != 0 || d.StallCycles != 0 {
				t.Errorf("DRAM traffic survives reset: %+v", d)
			}
			if bp := s.Cores[0].Predictor(); bp.Lookups != 0 || bp.Mispredicts != 0 {
				t.Errorf("predictor counters survive reset: %d/%d", bp.Lookups, bp.Mispredicts)
			}

			// Prefetcher-internal counters must reset too — each kind keeps
			// its own training/coverage statistics.
			switch pf := s.PFs[0].(type) {
			case *core.BFetch:
				if pf.Stats != (core.Stats{}) {
					t.Errorf("bfetch stats survive reset: %+v", pf.Stats)
				}
			case *sms.SMS:
				if pf.Generations != 0 || pf.PHTHits != 0 {
					t.Errorf("sms stats survive reset: %d/%d", pf.Generations, pf.PHTHits)
				}
			case *isb.ISB:
				if pf.TrainedPairs != 0 || pf.MetaOverflows != 0 {
					t.Errorf("isb stats survive reset: %d/%d", pf.TrainedPairs, pf.MetaOverflows)
				}
			case *stems.STeMS:
				if pf.TemporalHits != 0 || pf.Generations != 0 {
					t.Errorf("stems stats survive reset: %d/%d", pf.TemporalHits, pf.Generations)
				}
			}
		})
	}
}
