package lint

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fusedOp matches an arm64 fused multiply-add in -S output and captures the
// source position the compiler attributes it to.
var fusedOp = regexp.MustCompile(`\(([^()]+\.go:\d+)\)\s+(FN?M(?:ADD|SUB)[SD]?)\b`)

// TestNoFusedMultiplyAdd pins simulated numbers to the model, not to the
// host: the Go spec lets a compiler fuse x*y + z into one rounding, and
// arm64 does, while amd64 does not. The test cross-compiles the model
// packages for arm64 and fails on every fused op, naming its file:line. The
// fix is an explicit float64(...) conversion around the product, which the
// spec defines as a rounding point.
func TestNoFusedMultiplyAdd(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-compiles the module for arm64")
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	// Reading the sources makes go test's result cache follow edits to
	// them; the build's own reads are invisible to it.
	if _, err := LoadModule(root); err != nil {
		t.Fatal(err)
	}
	mod, err := readGoModModule(root)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "build", "-gcflags="+mod+"/internal/...=-S", "./internal/...")
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "GOARCH=arm64", "CGO_ENABLED=0")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("arm64 build failed: %v\n%s", err, out)
	}
	seen := map[string]bool{}
	for _, m := range fusedOp.FindAllStringSubmatch(string(out), -1) {
		pos := m[1]
		if rel, err := filepath.Rel(root, pos); err == nil && !strings.HasPrefix(rel, "..") {
			pos = filepath.ToSlash(rel)
		}
		if !seen[pos+m[2]] {
			seen[pos+m[2]] = true
			t.Errorf("%s: %s — round the product explicitly with float64(...)", pos, m[2])
		}
	}
}
