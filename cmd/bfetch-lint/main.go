// Command bfetch-lint runs the repository's custom static-analysis suite
// (internal/lint) over the module containing the working directory: the
// concurrency-discipline, determinism and stats-reset analyzers on the AST,
// and the compiler-witnessed escape analyzer (escape/inlining/bounds-check
// facts from `go build -gcflags='-m=2 -d=ssa/check_bce/debug=1'`, which Go's
// build cache replays for up-to-date packages). It prints findings
// compiler-style, in the format the GitHub problem matcher in
// .github/bfetch-lint-matcher.json reads, and exits non-zero when any
// survive, so `make lint` and CI can gate on it.
//
// Usage:
//
//	bfetch-lint
package main

import (
	"fmt"
	"os"
	"strings"

	"repro/internal/lint"
)

func main() {
	if len(os.Args) > 1 {
		fmt.Fprintln(os.Stderr, "usage: bfetch-lint (takes no arguments)")
		os.Exit(2)
	}
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	res, err := lint.RunAll(root)
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
