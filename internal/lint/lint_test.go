package lint

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// ------------------------------------------------------------ golden files --
//
// Each fixture directory under testdata/src holds known-bad and known-good
// sources for one analyzer. A `// want "substring"` comment (multiple quoted
// substrings allowed) on a line asserts that the analyzer reports a
// diagnostic there whose message contains the substring; every diagnostic
// must be claimed by a want and every want must be matched.

var wantRE = regexp.MustCompile(`"([^"]*)"`)

func loadFixture(t *testing.T, name string) (*Package, *moduleIndex) {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	pkgs, err := LoadModule(dir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("fixture %s: got %d packages, want 1", dir, len(pkgs))
	}
	return pkgs[0], buildModuleIndex(pkgs)
}

// collectWants maps "file:line" to the unmatched want substrings there.
func collectWants(p *Package) map[string][]string {
	wants := make(map[string][]string)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
				for _, m := range wantRE.FindAllStringSubmatch(text, -1) {
					wants[key] = append(wants[key], m[1])
				}
			}
		}
	}
	return wants
}

func checkGolden(t *testing.T, fixture string, run func(*Package, *moduleIndex) []Diagnostic) {
	t.Helper()
	p, idx := loadFixture(t, fixture)
	wants := collectWants(p)
	for _, d := range run(p, idx) {
		key := fmt.Sprintf("%s:%d", filepath.Base(d.Pos.Filename), d.Pos.Line)
		matched := -1
		for i, w := range wants[key] {
			if strings.Contains(d.Message, w) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("unexpected diagnostic at %s: %s", key, d.Message)
			continue
		}
		wants[key] = append(wants[key][:matched], wants[key][matched+1:]...)
		if len(wants[key]) == 0 {
			delete(wants, key)
		}
	}
	for key, subs := range wants {
		for _, w := range subs {
			t.Errorf("missing diagnostic at %s: want message containing %q", key, w)
		}
	}
}

func TestHotpathGolden(t *testing.T) {
	checkGolden(t, "hotpath", Hotpath)
}

func TestDeterminismGolden(t *testing.T) {
	checkGolden(t, "determinism", Determinism)
}

// TestStoreDeterminismGolden covers the store-shaped hazards the durable
// cache introduced: timing disk reads (must be annotated as stats-only) and
// publishing directory/index listings in map order.
func TestStoreDeterminismGolden(t *testing.T) {
	checkGolden(t, "storedet", Determinism)
}

func TestStatsResetGolden(t *testing.T) {
	checkGolden(t, "statsreset", func(p *Package, _ *moduleIndex) []Diagnostic {
		return StatsReset(p)
	})
}

// --------------------------------------------------------------- live tree --

// TestLiveTreeClean is the shipped-tree gate: the module this test runs in
// must produce zero findings under all six analyzers, compiler-witnessed
// layer included. It is the same check `make lint-full` performs, so a
// regression — including deleting a //bfetch:hotpath annotation from a
// reachable helper — fails `go test ./...` too. Go's build cache replays the
// compiler diagnostics, so a warm run skips the compile; if the toolchain's
// diagnostic format is unrecognized, the escape layer skips with a warning
// (the designed degradation) and the five AST analyzers still gate.
func TestLiveTreeClean(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatalf("finding module root: %v", err)
	}
	res, err := RunAll(root, true)
	if err != nil {
		t.Fatalf("running gate: %v", err)
	}
	for _, d := range res.Diags {
		t.Errorf("live tree finding: %s", d)
	}
	missing := map[string]bool{}
	for _, name := range AnalyzerNames {
		missing[name] = true
	}
	for _, name := range res.Ran {
		delete(missing, name)
	}
	if missing["escape"] && len(missing) == 1 && len(res.Warnings) > 0 {
		t.Logf("escape layer skipped (toolchain drift): %v", res.Warnings)
	} else if len(missing) > 0 {
		t.Errorf("analyzers did not run: %v (ran %v, warnings %v)", missing, res.Ran, res.Warnings)
	}
	if res.Packages < 10 {
		t.Errorf("loaded only %d packages from %s; module walk looks broken", res.Packages, root)
	}
}

// ---------------------------------------------------------------- mutation --

// simLikeSrc mirrors the shape of sim.System's stats reset. The mutation test
// deletes one field assignment and requires the statsreset analyzer to
// re-detect exactly that bug class (a counter silently surviving the warmup
// boundary was what PR 2's hand audit caught).
const simLikeSrc = `package sim

type System struct {
	Cfg    int //bfetch:noreset configuration
	cycles uint64
	misses uint64
	issued uint64
	table  []int //bfetch:noreset learned state
}

func (s *System) ResetStats() {
	s.cycles = 0
	s.misses = 0
	s.issued = 0
}
`

func TestStatsResetMutation(t *testing.T) {
	p, err := ParseSource("sim.go", simLikeSrc)
	if err != nil {
		t.Fatalf("parsing clean source: %v", err)
	}
	if diags := StatsReset(p); len(diags) != 0 {
		t.Fatalf("clean source produced findings: %v", diags)
	}

	mutated := strings.Replace(simLikeSrc, "\ts.misses = 0\n", "", 1)
	if mutated == simLikeSrc {
		t.Fatal("mutation did not apply; fixture drifted")
	}
	p, err = ParseSource("sim.go", mutated)
	if err != nil {
		t.Fatalf("parsing mutated source: %v", err)
	}
	diags := StatsReset(p)
	if len(diags) != 1 {
		t.Fatalf("mutated source: got %d findings, want exactly 1: %v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "System.misses") {
		t.Errorf("mutated source: finding %q does not name System.misses", diags[0].Message)
	}
}

// obsLikeSrc mirrors the observability registry's hot-path instruments: a
// fixed-slot counter increment and a ring-buffer trace append, both under
// //bfetch:hotpath. The mutation test plants the easiest regression to make
// there — allocating inside the increment — and requires the hotpath
// analyzer to catch it, witnessing that the obs instruments are inside the
// lint contract rather than merely absent from its findings.
const obsLikeSrc = `package obs

type Counter struct{ v *uint64 }

//bfetch:hotpath
func (c Counter) Inc() { *c.v++ }

type Trace struct {
	buf  []uint64
	w, n int
}

//bfetch:hotpath
func (t *Trace) Record(v uint64) {
	if t == nil {
		return
	}
	t.buf[t.w] = v
	t.w++
	if t.w == len(t.buf) {
		t.w = 0
	}
}
`

func TestObsHotpathMutation(t *testing.T) {
	p, err := ParseSource("obs.go", obsLikeSrc)
	if err != nil {
		t.Fatalf("parsing clean source: %v", err)
	}
	if diags := Hotpath(p, buildModuleIndex([]*Package{p})); len(diags) != 0 {
		t.Fatalf("clean obs-like source produced findings: %v", diags)
	}

	mutated := strings.Replace(obsLikeSrc,
		"func (c Counter) Inc() { *c.v++ }",
		"func (c Counter) Inc() { *c.v++; _ = make([]uint64, 4) }", 1)
	if mutated == obsLikeSrc {
		t.Fatal("mutation did not apply; fixture drifted")
	}
	p, err = ParseSource("obs.go", mutated)
	if err != nil {
		t.Fatalf("parsing mutated source: %v", err)
	}
	diags := Hotpath(p, buildModuleIndex([]*Package{p}))
	if len(diags) != 1 {
		t.Fatalf("mutated source: got %d findings, want exactly 1: %v", len(diags), diags)
	}
}

// emuLikeSrc mirrors the two cycle-kernel shapes this module's hot paths
// lean on: the threaded-code emulator's superblock dispatch loop (pre-decoded
// op records executed inline in a switch) and the out-of-order core's
// TrailingZeros64-style bitmap scheduler walk. The clean pass witnesses both
// idioms are inside the lint contract; the mutation plants the easiest
// regression — an op body wrapped in a per-step closure — and requires the
// analyzer to catch it.
const emuLikeSrc = `package emu

type cop struct {
	kind   uint8
	rd, rs uint8
	imm    int64
}

type kernel struct {
	ops  []cop
	term []int32
}

//bfetch:hotpath
func (k *kernel) run(regs *[32]int64, pc int) int {
	ops := k.ops
	t := int(k.term[pc])
	for i := pc; i < t; i++ {
		o := &ops[i]
		switch o.kind {
		case 0:
			regs[o.rd&31] = regs[o.rs&31] + o.imm
		default:
			regs[o.rd&31] = o.imm
		}
	}
	return t
}

//bfetch:hotpath
func pick(bm []uint64, width int) int {
	n := 0
	for _, w := range bm {
		for ; w != 0; w &= w - 1 {
			if n++; n == width {
				return n
			}
		}
	}
	return n
}
`

func TestCompiledDispatchHotpathMutation(t *testing.T) {
	p, err := ParseSource("emu.go", emuLikeSrc)
	if err != nil {
		t.Fatalf("parsing clean source: %v", err)
	}
	if diags := Hotpath(p, buildModuleIndex([]*Package{p})); len(diags) != 0 {
		t.Fatalf("clean emu-like source produced findings: %v", diags)
	}

	mutated := strings.Replace(emuLikeSrc,
		"regs[o.rd&31] = regs[o.rs&31] + o.imm\n",
		"func() { regs[o.rd&31] = regs[o.rs&31] + o.imm }()\n", 1)
	if mutated == emuLikeSrc {
		t.Fatal("mutation did not apply; fixture drifted")
	}
	p, err = ParseSource("emu.go", mutated)
	if err != nil {
		t.Fatalf("parsing mutated source: %v", err)
	}
	diags := Hotpath(p, buildModuleIndex([]*Package{p}))
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "closure") {
		t.Fatalf("mutated source: got %v, want exactly one closure finding", diags)
	}
}

// tsLikeSrc mirrors the observability interval sampler's window restart,
// plus a CPI-stack array reset — the counters the attribution subsystem
// added. The mutation test deletes one cursor assignment and requires the
// statsreset analyzer (which audits Restart alongside Reset/ResetStats) to
// re-detect it: a sampler that keeps its old nextAt across ResetStats
// replays warmup-window boundaries into the measurement window, and a CPI
// array that survives the reset breaks the exact-partition invariant
// (buckets would exceed the window's cycles).
const tsLikeSrc = `package obs

type timeSeries struct {
	reg      *int     //bfetch:noreset wiring
	maxRows  int      //bfetch:noreset configuration
	buf      []uint64 //bfetch:noreset ring storage, emptied logically by n=0
	n        int
	cpi      [4]uint64
	interval uint64
	base     uint64
	nextAt   uint64
}

func (s *timeSeries) Restart(now uint64) {
	s.n = 0
	s.cpi = [4]uint64{}
	s.interval = 1
	s.base = now
	s.nextAt = now + s.interval
}
`

func TestTimeSeriesRestartMutation(t *testing.T) {
	p, err := ParseSource("obs.go", tsLikeSrc)
	if err != nil {
		t.Fatalf("parsing clean source: %v", err)
	}
	if diags := StatsReset(p); len(diags) != 0 {
		t.Fatalf("clean source produced findings: %v", diags)
	}

	for _, mut := range []struct {
		drop, field string
	}{
		{"\ts.nextAt = now + s.interval\n", "timeSeries.nextAt"},
		{"\ts.cpi = [4]uint64{}\n", "timeSeries.cpi"},
	} {
		mutated := strings.Replace(tsLikeSrc, mut.drop, "", 1)
		if mutated == tsLikeSrc {
			t.Fatalf("mutation %q did not apply; fixture drifted", mut.drop)
		}
		p, err = ParseSource("obs.go", mutated)
		if err != nil {
			t.Fatalf("parsing mutated source: %v", err)
		}
		diags := StatsReset(p)
		if len(diags) != 1 || !strings.Contains(diags[0].Message, mut.field) {
			t.Fatalf("mutated source: got %v, want exactly one finding naming %s", diags, mut.field)
		}
	}
}

// TestNoresetMutationAlsoGuardsMarkers checks the symmetric direction:
// removing a //bfetch:noreset annotation (without adding the reset) must
// surface the field.
func TestNoresetMutationAlsoGuardsMarkers(t *testing.T) {
	mutated := strings.Replace(simLikeSrc, " //bfetch:noreset learned state", "", 1)
	if mutated == simLikeSrc {
		t.Fatal("mutation did not apply; fixture drifted")
	}
	p, err := ParseSource("sim.go", mutated)
	if err != nil {
		t.Fatalf("parsing mutated source: %v", err)
	}
	diags := StatsReset(p)
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "System.table") {
		t.Fatalf("got %v, want exactly one finding naming System.table", diags)
	}
}

// ------------------------------------------------- hotcall / syncorder --

func TestHotcallGolden(t *testing.T) {
	checkGolden(t, "hotcall", func(p *Package, _ *moduleIndex) []Diagnostic {
		return Hotcall([]*Package{p}, buildFuncIndex([]*Package{p}))
	})
}

func TestSyncOrderGolden(t *testing.T) {
	checkGolden(t, "syncorder", func(p *Package, _ *moduleIndex) []Diagnostic {
		return SyncOrder(p)
	})
}

// hotcallLikeSrc mirrors the shape the closure analyzer guards in the live
// tree: an annotated kernel calling an annotated helper. The mutation —
// deleting the helper's annotation while it still allocates — is exactly
// the regression the acceptance criteria pin: one deleted annotation on a
// reachable helper must fail the suite.
const hotcallLikeSrc = `package core

type eng struct{ buf []int }

//bfetch:hotpath
func (e *eng) cycle(n int) {
	e.refill(n)
}

//bfetch:hotpath
func (e *eng) refill(n int) {
	if cap(e.buf) < n {
		e.buf = make([]int, n) //bfetch:alloc-ok grow-once scratch
	}
	e.buf = e.buf[:n]
}
`

func TestHotcallAnnotationMutation(t *testing.T) {
	p, err := ParseSource("core.go", hotcallLikeSrc)
	if err != nil {
		t.Fatalf("parsing clean source: %v", err)
	}
	if diags := Hotcall([]*Package{p}, buildFuncIndex([]*Package{p})); len(diags) != 0 {
		t.Fatalf("clean source produced findings: %v", diags)
	}

	mutated := strings.Replace(hotcallLikeSrc, "//bfetch:hotpath\nfunc (e *eng) refill", "func (e *eng) refill", 1)
	if mutated == hotcallLikeSrc {
		t.Fatal("mutation did not apply; fixture drifted")
	}
	p, err = ParseSource("core.go", mutated)
	if err != nil {
		t.Fatalf("parsing mutated source: %v", err)
	}
	diags := Hotcall([]*Package{p}, buildFuncIndex([]*Package{p}))
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "refill") {
		t.Fatalf("mutated source: got %v, want exactly one finding naming refill", diags)
	}
}

// syncLikeSrc mirrors the runner's singleflight completion: close() under
// the lock is the sanctioned idiom. The mutation swaps it for a channel
// send, the convoy-shaped bug the analyzer exists to catch.
const syncLikeSrc = `package runner

import "sync"

type flight struct {
	mu   sync.Mutex
	done chan struct{}
	val  int
}

func (f *flight) complete(v int) {
	f.mu.Lock()
	f.val = v
	close(f.done)
	f.mu.Unlock()
}
`

func TestSyncOrderSendMutation(t *testing.T) {
	p, err := ParseSource("runner.go", syncLikeSrc)
	if err != nil {
		t.Fatalf("parsing clean source: %v", err)
	}
	if diags := SyncOrder(p); len(diags) != 0 {
		t.Fatalf("clean source produced findings: %v", diags)
	}

	mutated := strings.Replace(syncLikeSrc, "close(f.done)", "f.done <- struct{}{}", 1)
	if mutated == syncLikeSrc {
		t.Fatal("mutation did not apply; fixture drifted")
	}
	p, err = ParseSource("runner.go", mutated)
	if err != nil {
		t.Fatalf("parsing mutated source: %v", err)
	}
	diags := SyncOrder(p)
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "channel send while holding flight.mu") {
		t.Fatalf("mutated source: got %v, want exactly one send-under-lock finding", diags)
	}
}
