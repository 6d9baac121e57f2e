package harness

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// These tests pin the tentpole guarantees of the parallel engine: parallel
// and sequential execution render byte-identical tables, and repeated
// points across experiments come from the cache.

func render(tables []*stats.Table) string {
	var sb strings.Builder
	for _, t := range tables {
		sb.WriteString(t.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

func runWith(t *testing.T, id string, eng *runner.Engine, log *bytes.Buffer) string {
	t.Helper()
	p := Params{
		Opts:      sim.RunOpts{WarmupInsts: 5_000, MeasureInsts: 10_000},
		Workloads: []string{"libquantum", "gamess", "mcf"},
		Mixes:     2,
		Runner:    eng,
	}
	if log != nil {
		p.Log = log
	}
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	tables, err := e.Run(p)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return render(tables)
}

func TestParallelTablesMatchSequential(t *testing.T) {
	for _, id := range []string{"fig8", "fig9", "fig11", "fig13", "fig14", "fig3", "fig7", "ext-isb", "ext-depth"} {
		var seqLog, parLog bytes.Buffer
		seq := runWith(t, id, runner.New(1), &seqLog)
		par := runWith(t, id, runner.New(8), &parLog)
		if seq != par {
			t.Errorf("%s: parallel tables differ from sequential\n--- seq ---\n%s--- par ---\n%s", id, seq, par)
		}
		if seqLog.String() != parLog.String() {
			t.Errorf("%s: progress log not deterministic under parallelism", id)
		}
	}
}

func TestCrossExperimentCacheHits(t *testing.T) {
	// fig1 (Stride/SMS/Perfect) and fig8 (Stride/SMS/B-Fetch) share their
	// Stride and SMS points and the no-prefetch baseline; one shared engine
	// must answer all of fig8's repeats from the cache.
	eng := runner.New(4)
	p := Params{
		Opts:      sim.RunOpts{WarmupInsts: 5_000, MeasureInsts: 10_000},
		Workloads: []string{"libquantum", "gamess"},
		Runner:    eng,
	}
	for _, id := range []string{"fig1", "fig8"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(p); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	st := eng.Stats()
	// 2 workloads × 2 shared prefetcher configs = 4 hits minimum.
	if st.Hits < 4 {
		t.Errorf("cache stats after fig1+fig8: %+v, want ≥4 hits", st)
	}
}

func TestBaselineSharedAcrossExperiments(t *testing.T) {
	// fig8 and fig12 normalize to the same no-prefetch baseline, and fig12's
	// default-threshold B-Fetch series is fig8's B-Fetch series: one engine
	// must answer both from its run-cache, leaving fig12 only its two
	// non-default thresholds to simulate.
	eng := runner.New(1)
	p := Params{
		Opts:      sim.RunOpts{WarmupInsts: 5_000, MeasureInsts: 10_000},
		Workloads: []string{"libquantum", "gamess"},
		Runner:    eng,
	}
	run := func(id string) {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(p); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	run("fig8")
	afterFirst := eng.Stats().Runs
	// Baseline plus Stride, SMS and B-Fetch, on each of 2 workloads.
	if afterFirst != 8 {
		t.Fatalf("fig8 ran %d sims, want 8", afterFirst)
	}
	run("fig12")
	// 2 non-default thresholds × 2 workloads; the baseline and the
	// default-threshold points are run-cache hits.
	if got := eng.Stats().Runs - afterFirst; got != 4 {
		t.Errorf("fig12 ran %d new sims after fig8, want 4 (baselines and the default threshold from the run-cache)", got)
	}
}

// TestExtTablesReadEngineResults pins that ext-depth and ext-isb report the
// counters of the same runs the engine memoizes, not of side simulations:
// ext-depth's 0.75 row is the lookahead depth over those results' measured
// windows, and ext-isb's ISB state is its mcf result's c0.pf.meta_bytes.
func TestExtTablesReadEngineResults(t *testing.T) {
	eng := runner.New(1)
	p := Params{
		Opts:      sim.RunOpts{WarmupInsts: 5_000, MeasureInsts: 10_000},
		Workloads: []string{"libquantum", "mcf"},
		Runner:    eng,
	}
	metric := func(res sim.Result, name string) uint64 {
		t.Helper()
		v, ok := res.Metrics.Get(name)
		if !ok {
			t.Fatalf("result lacks %s", name)
		}
		return v
	}

	cfg := sim.Default(sim.PFBFetch)
	cfg.BFetch.PathThreshold = 0.75
	var steps, starts uint64
	for _, w := range p.Workloads {
		res, err := eng.Run(runner.Solo(cfg, w, p.Opts))
		if err != nil {
			t.Fatal(err)
		}
		steps += metric(res, "c0.pf.lookahead_steps")
		starts += metric(res, "c0.pf.lookahead_starts")
	}
	if starts == 0 {
		t.Fatal("no lookahead started")
	}
	e, err := ByID("ext-depth")
	if err != nil {
		t.Fatal(err)
	}
	depth, err := e.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%.3f", float64(steps)/float64(starts))
	var got string
	for _, row := range depth[0].Rows {
		if row[0] == "0.75" {
			got = row[1]
		}
	}
	if got != want {
		t.Errorf("ext-depth avg_depth_BB at 0.75 = %q, want %s from the engine's results", got, want)
	}

	res, err := eng.Run(runner.Solo(sim.Default(sim.PFISB), "mcf", p.Opts))
	if err != nil {
		t.Fatal(err)
	}
	wantKB := fmt.Sprintf("%.1f KB", float64(metric(res, "c0.pf.meta_bytes"))/1024)
	if e, err = ByID("ext-isb"); err != nil {
		t.Fatal(err)
	}
	isb, err := e.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if row := findRow(isb[2], "ISB"); !strings.Contains(row, wantKB) {
		t.Errorf("ext-isb ISB row %q, want %s from the engine's result", row, wantKB)
	}
}

// TestFOAProfilesCountedOncePerEngine pins the mix-selection profiles as
// counted engine work: the first request emulates every workload's profile
// and reports it in EmuInsts, later requests on the same engine reuse it and
// emulate nothing, and each caller gets its own copy of the subset it asked
// for, equal to the sequential workload.FOAProfiles.
func TestFOAProfilesCountedOncePerEngine(t *testing.T) {
	want, err := workload.FOAProfiles(foaProfileInsts)
	if err != nil {
		t.Fatal(err)
	}
	p := tinyParams()
	p.Runner = runner.New(2)
	got, err := p.foaProfiles()
	if err != nil {
		t.Fatal(err)
	}
	emu := p.Runner.Stats().EmuInsts
	if n := uint64(len(workload.All())) * foaProfileInsts; emu != n {
		t.Errorf("first profiling emulated %d insts, want %d", emu, n)
	}
	if len(got) != len(p.Workloads) {
		t.Fatalf("got %d profiles, want the %d requested", len(got), len(p.Workloads))
	}
	for _, name := range p.Workloads {
		if got[name] != want[name] {
			t.Errorf("%s: FOA %v, sequential profile %v", name, got[name], want[name])
		}
	}

	delete(got, p.Workloads[0])
	again, err := p.foaProfiles()
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(p.Workloads) {
		t.Errorf("a caller's delete leaked into the shared profiles: %v", again)
	}
	if n := p.Runner.Stats().EmuInsts; n != emu {
		t.Errorf("second request emulated %d more insts, want 0", n-emu)
	}
}
