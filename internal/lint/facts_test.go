package lint

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// ----------------------------------------------------------- escape golden --

// TestEscapeGolden compiles the escape fixture (its own mini-module under
// testdata/src/escape) with the real diagnostic flags and checks the
// compiler-witnessed findings against the // want comments. A toolchain
// whose output the parser no longer recognizes skips the test — the same
// skip-with-warning degradation the CLI performs — rather than passing
// vacuously or failing on format drift.
func TestEscapeGolden(t *testing.T) {
	dir := filepath.Join("testdata", "src", "escape")
	pkgs, err := LoadModule(dir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("fixture %s: got %d packages, want 1", dir, len(pkgs))
	}
	facts, err := CollectFacts(dir, pkgs)
	if errors.Is(err, ErrNoFacts) {
		t.Skipf("toolchain diagnostic format not recognized; escape layer degrades to skip: %v", err)
	}
	if err != nil {
		t.Fatalf("collecting facts: %v", err)
	}
	p := pkgs[0]
	wants := collectWants(p)
	diags := Escape(pkgs, buildFuncIndex(pkgs), facts)
	for _, d := range diags {
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

// ------------------------------------------------ cross-package staleness --

// TestFactsFollowCalleeChange pins that compiler facts about a call site
// follow a change to the callee's package. A //bfetch:hotpath caller in
// package a calls an inlinable helper in package b; marking the helper
// //go:noinline changes only b's files, yet the second run must report the
// non-inlined call in a. A fact cache keyed by each package's own files
// serves a's first-run facts here and reports nothing.
func TestFactsFollowCalleeChange(t *testing.T) {
	root := t.TempDir()
	write := func(rel, src string) {
		t.Helper()
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	const helper = `package b

func Inc(x int) int { return x + 1 }
`
	write("go.mod", "module stale\n\ngo 1.22\n")
	write("a/a.go", `package a

import "stale/b"

//bfetch:hotpath
func Step(x int) int { return b.Inc(x) }
`)
	write("b/b.go", helper)

	escape := func() []Diagnostic {
		t.Helper()
		pkgs, err := LoadModule(root)
		if err != nil {
			t.Fatalf("loading module: %v", err)
		}
		facts, err := CollectFacts(root, pkgs)
		if errors.Is(err, ErrNoFacts) {
			t.Skipf("toolchain diagnostic format not recognized; escape layer degrades to skip: %v", err)
		}
		if err != nil {
			t.Fatalf("collecting facts: %v", err)
		}
		return Escape(pkgs, buildFuncIndex(pkgs), facts)
	}

	if diags := escape(); len(diags) != 0 {
		t.Fatalf("inlinable helper produced findings: %v", diags)
	}
	write("b/b.go", strings.Replace(helper, "func Inc", "//go:noinline\nfunc Inc", 1))
	diags := escape()
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "call to Inc in //bfetch:hotpath Step is not inlined") {
		t.Fatalf("after marking the helper //go:noinline: got %v, want exactly one non-inlined call to Inc", diags)
	}
}

// ------------------------------------------------- toolchain format pinning --

// loadFactFixture parses one recorded diagnostic stream from testdata/facts.
func loadFactFixture(t *testing.T, name string) *FactTable {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "facts", name))
	if err != nil {
		t.Fatalf("reading recorded fixture: %v", err)
	}
	return ParseFacts(".", raw)
}

// TestParseFactsToolchainFormats pins the parser against the two recorded
// diagnostic spellings (go1.22 module-relative paths, go1.24 "./"-prefixed
// root-package paths). Both must yield the identical logical fact set; a
// toolchain that drifts from both shapes yields nothing, which upstream
// degrades to ErrNoFacts — never a false pass.
func TestParseFactsToolchainFormats(t *testing.T) {
	for _, name := range []string{"go1.22.txt", "go1.24.txt"} {
		table := loadFactFixture(t, name)
		facts := table.ByFile["mem.go"]
		if len(table.ByFile) != 1 || len(facts) != 7 {
			t.Fatalf("%s: got %d files / %d facts, want 1 file with 7 facts: %+v",
				name, len(table.ByFile), len(facts), table.ByFile)
		}
		counts := map[FactKind]int{}
		for _, f := range facts {
			counts[f.Kind]++
		}
		want := map[FactKind]int{
			FactCanInline: 1, FactCannotInline: 1, FactInlineCall: 1,
			FactEscape: 2, FactBoundsCheck: 2,
		}
		for k, n := range want {
			if counts[k] != n {
				t.Errorf("%s: got %d %s facts, want %d", name, counts[k], k, n)
			}
		}
		// The doubled escape line ("escapes to heap" with and without the
		// trailing trace colon) must dedup to one fact.
		if got := table.FactsAt("mem.go", 44); len(got) != 1 || got[0].Name != "new(page)" {
			t.Errorf("%s: facts at mem.go:44 = %+v, want one new(page) escape", name, got)
		}
		// Inline verdicts index by receiver-stripped base name.
		if got := table.CannotInline("pageFor"); len(got) != 1 ||
			!strings.Contains(got[0].Detail, "cost 210") {
			t.Errorf("%s: CannotInline(pageFor) = %+v", name, got)
		}
		if got := table.CanInline("Read8"); len(got) != 1 {
			t.Errorf("%s: CanInline(Read8) = %+v", name, got)
		}
	}
}

// TestParseFactsUnknownFormat is the degradation trigger: a stream in an
// unrecognized shape parses to zero facts, which CollectFacts converts to
// ErrNoFacts for any module that plainly has functions.
func TestParseFactsUnknownFormat(t *testing.T) {
	out := []byte("mem.go(10): escape: v\ncompile: mem.go line 10 v escapes\nTOTAL 3 diagnostics\n")
	table := ParseFacts(".", out)
	if len(table.ByFile) != 0 {
		t.Fatalf("unknown format parsed to facts: %+v", table.ByFile)
	}
}

// --------------------------------------------------------- escape mutation --

// escLikeSrc mirrors the one hatched heap escape the live tree carries (the
// copy-on-write fault in mem.pageFor): an annotated function whose escaping
// local is excused by //bfetch:alloc-ok. Deleting the hatch must surface the
// compiler-witnessed finding.
const escLikeSrc = `package esc

//bfetch:hotpath
func leak(n int) *int {
	v := n //bfetch:alloc-ok boot-time registration, called once
	return &v
}
`

// escLikeFacts is the matching recorded compiler output: v is moved to the
// heap at its declaration on line 5.
const escLikeFacts = "esc.go:4:6: cannot inline leak: marked go:noinline\nesc.go:5:2: moved to heap: v\n"

func TestEscapeHatchMutation(t *testing.T) {
	p, err := ParseSource("esc.go", escLikeSrc)
	if err != nil {
		t.Fatalf("parsing clean source: %v", err)
	}
	pkgs := []*Package{p}
	facts := ParseFacts(".", []byte(escLikeFacts))
	if diags := Escape(pkgs, buildFuncIndex(pkgs), facts); len(diags) != 0 {
		t.Fatalf("clean source produced findings: %v", diags)
	}

	mutated := strings.Replace(escLikeSrc, " //bfetch:alloc-ok boot-time registration, called once", "", 1)
	if mutated == escLikeSrc {
		t.Fatal("mutation did not apply; fixture drifted")
	}
	p, err = ParseSource("esc.go", mutated)
	if err != nil {
		t.Fatalf("parsing mutated source: %v", err)
	}
	pkgs = []*Package{p}
	diags := Escape(pkgs, buildFuncIndex(pkgs), facts)
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "v escapes to heap inside //bfetch:hotpath leak") {
		t.Fatalf("mutated source: got %v, want exactly one escape finding for v", diags)
	}
}
