package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"

	"repro/internal/cpu"
	"repro/internal/sim"
)

// toyOpts shrinks every workload's protocol so a pass takes well under a
// second.
var toyOpts = sim.RunOpts{FastForwardInsts: 20_000, WarmupInsts: 500, MeasureInsts: 2_000}

func toyPass(t *testing.T, wl string, traced bool) *passOut {
	t.Helper()
	env := &passEnv{opts: toyOpts, seed: 7, dir: t.TempDir()}
	if traced {
		env.tr = newTracer()
	}
	out, err := runPass(wl, env)
	if err != nil {
		t.Fatalf("%s pass (traced=%t): %v", wl, traced, err)
	}
	return out
}

// TestMetricsMatchBenchmarkJSON checks the benchmark emits exactly the metric
// names and units BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, perfbench has %v", names, workloadNames)
	}
	same := func(kind string, declared []struct{ Name, Unit string }, emitted []metric) {
		var d, e []string
		for _, m := range declared {
			d = append(d, m.Name+" "+m.Unit)
		}
		for _, m := range emitted {
			e = append(e, m.Name+" "+m.Unit)
		}
		sort.Strings(d)
		sort.Strings(e)
		if !reflect.DeepEqual(d, e) {
			t.Errorf("%s metrics differ:\nBENCHMARK.json %v\nperfbench      %v", kind, d, e)
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

// TestToyRuns runs every workload at toy scale, untraced twice and traced
// once, and checks every named metric comes out with its unit, every check
// passes, and the traced digest equals the untraced one.
func TestToyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	for _, wl := range workloadNames {
		t.Run(wl, func(t *testing.T) {
			var r run
			r.add(toyPass(t, wl, false), nil, false)
			r.add(toyPass(t, wl, false), nil, false)
			r.add(toyPass(t, wl, true), nil, true)
			if n := r.failed(); n != 0 {
				t.Fatalf("%d of %d operations failed", n, r.attempted())
			}
			e2e, err := r.endToEndMetrics()
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range endToEnd {
				if v, ok := e2e[m.Name]; !ok || v.Unit != m.Unit || v.Value <= 0 {
					t.Errorf("end-to-end %s = %+v, want a positive value in %s", m.Name, v, m.Unit)
				}
			}
			layers, err := r.layerMetrics()
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range perLayer {
				if v, ok := layers[m.Name]; !ok || v.Unit != m.Unit {
					t.Errorf("per-layer %s = %+v, want unit %s", m.Name, v, m.Unit)
				}
			}
			if len(r.traced.Spans) == 0 {
				t.Error("traced pass recorded no spans")
			}
		})
	}
}

// TestCorruptedResultIsCounted checks a pass whose result differs from the
// first pass counts as a failed operation and stays out of the medians.
func TestCorruptedResultIsCounted(t *testing.T) {
	pass := func(wall float64, digests ...string) *passOut {
		p := &passOut{SetupS: 1, WallS: wall, Insts: 1000, PeakRSSMiB: 10, Layers: map[string]float64{}}
		for i, d := range digests {
			p.addOp(string(rune('a'+i)), d, "")
		}
		return p
	}
	var r run
	r.add(pass(1, "x", "y"), nil, false)
	r.add(pass(1, "x", "y"), nil, false)
	r.add(pass(1000, "x", "corrupt"), nil, false)
	if got := r.attempted(); got != 6 {
		t.Errorf("attempted = %d, want 6", got)
	}
	if got := r.failed(); got != 1 {
		t.Errorf("failed = %d, want 1", got)
	}
	m, err := r.endToEndMetrics()
	if err != nil {
		t.Fatal(err)
	}
	if w := m["wall_s"].Value; w != 1 {
		t.Errorf("wall_s = %v: the corrupted pass was averaged in", w)
	}

	r.add(nil, os.ErrNotExist, false) // a pass that did not run at all
	if got := r.failed(); got != 2 {
		t.Errorf("failed = %d after a crashed pass, want 2", got)
	}
	r.add(pass(1, "x", "traced-corrupt"), nil, true)
	if got := r.failed(); got != 3 {
		t.Errorf("failed = %d after a traced pass with a different digest, want 3", got)
	}
}

// TestCommitCheck checks a core short of its instruction target is caught.
func TestCommitCheck(t *testing.T) {
	r := sim.Result{Core: []cpu.Stats{{Committed: 100}, {Committed: 99}}}
	if checkCommitted(r, 100) == "" {
		t.Error("core committing 99 of 100 instructions passed the check")
	}
	if msg := checkCommitted(r, 99); msg != "" {
		t.Errorf("unexpected failure: %s", msg)
	}
}
