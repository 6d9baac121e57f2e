// Command bfetch-lint runs the repository's custom static-analysis suite
// (internal/lint) over the module containing the working directory. The AST
// layer (hotpath zero-allocation contract, transitive hotpath reachability,
// concurrency discipline, determinism rules, stats-reset audit) always runs;
// -compiler adds the compiler-witnessed layer (escape/inlining/bounds-check
// facts from `go build -gcflags='-m=2 -d=ssa/check_bce/debug=1'`, which Go's
// build cache replays for up-to-date packages). It prints findings
// compiler-style, in the format the GitHub problem matcher in
// .github/bfetch-lint-matcher.json reads, and exits non-zero when any
// survive, so `make lint` / `make lint-full` and CI can gate on it.
//
// Usage:
//
//	bfetch-lint [-compiler]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/lint"
)

func main() {
	compiler := flag.Bool("compiler", false, "also run the compiler-witnessed escape analyzer (builds the module with -gcflags=-m=2)")
	flag.Parse()

	root, err := lint.FindModuleRoot(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	res, err := lint.RunAll(root, *compiler)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	for _, w := range res.Warnings {
		fmt.Fprintf(os.Stderr, "bfetch-lint: warning: %s\n", w)
	}
	for _, d := range res.Diags {
		fmt.Println(d)
	}
	fmt.Fprintf(os.Stderr, "bfetch-lint: %d package(s), %d analyzer(s) [%s], %d finding(s)\n",
		res.Packages, len(res.Ran), strings.Join(res.Ran, " "), len(res.Diags))
	if len(res.Diags) > 0 {
		os.Exit(1)
	}
}
