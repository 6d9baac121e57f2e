package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

// span is one timed call the benchmark made into the simulator. Spans of one
// pass share its trace file; Parent is 0 for a root span.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	StartS float64 `json:"start_s"` // since the pass started
	EndS   float64 `json:"end_s"`
}

// tracer records spans in memory; a traced pass writes them out when it
// ends. A nil *tracer records nothing, so untraced passes call the same
// code.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now()} //bfetch:wallclock span timestamps
}

// do runs fn inside a span named name.
func (t *tracer) do(name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, StartS: t.now()})
	t.stack = append(t.stack, id)
	err := fn()
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id-1].EndS = t.now()
	return err
}

func (t *tracer) now() float64 {
	return time.Since(t.t0).Seconds() //bfetch:wallclock span timestamps
}

// total sums the durations of the spans named name.
func (t *tracer) total(name string) float64 {
	var s float64
	for _, sp := range t.spans {
		if sp.Name == name {
			s += sp.EndS - sp.StartS
		}
	}
	return s
}

// layers derives the span-timed layer metrics.
func (t *tracer) layers(l map[string]float64) {
	l["workload.build_s"] = t.total("Workload.Build")
	l["sim.assemble_s"] = t.total("sim.NewFromCheckpoints")
	l["sim.warmup_s"] = t.total("System.Run/warmup")
	l["sim.measure_s"] = t.total("System.Run/measure")
	if ff := t.total("ckpt.New"); ff > 0 {
		l["ckpt.ff_s"] = ff
		l["emu.minsts_per_s"] = l["emu.insts"] / ff / 1e6
	}
}

// profiledLayers are the simulator packages whose self time a traced pass
// reports, plus the Go runtime; the remainder is "other".
var profiledLayers = []string{"sim", "cpu", "branch", "cache", "core", "sms", "prefetch",
	"emu", "ckpt", "mem", "store", "runner", "obs", "runtime", "other"}

// startProfile starts the traced pass's CPU profile of the timed region and
// returns the function that stops it. Untraced passes get a no-op.
func (e *passEnv) startProfile() (func(), error) {
	if e.tr == nil {
		return func() {}, nil
	}
	f, err := os.Create(filepath.Join(e.dir, "cpu.pprof"))
	if err != nil {
		return nil, err
	}
	// Ask for 1 kHz instead of the default 100 Hz: a core-bound pass's
	// timed region is about a second, too few samples to resolve a layer
	// with a share of a few percent. The kernel's timer tick may cap the
	// rate lower. (The runtime warns on stderr that the rate was set before
	// the profile started; the higher rate applies.)
	runtime.SetCPUProfileRate(1000)
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// foldProfile folds the timed region's CPU profile into per-layer self-time
// shares, using the toolchain's pprof to print every sampled stack.
func (e *passEnv) foldProfile(l map[string]float64) error {
	cmd := exec.Command("go", "tool", "pprof", "-traces", filepath.Join(e.dir, "cpu.pprof"))
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+e.dir)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	text, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	self, underFF, total, err := foldTraces(text)
	if err != nil {
		return err
	}
	for _, name := range profiledLayers {
		l[name+".self_share"] = ratio(self[name], total)
	}
	if l["ckpt.ff_s"] == 0 {
		// The fig8 runner fast-forwards on its workers, out of the
		// benchmark's reach: report the CPU time the profile saw under
		// ckpt.New instead.
		l["ckpt.ff_s"] = underFF
		l["emu.minsts_per_s"] = ratio(l["emu.insts"], underFF*1e6)
	}
	return nil
}

// foldTraces parses `go tool pprof -traces` output. Each sample is charged
// to the innermost frame in a repository package or the Go runtime; other
// standard-library frames (hashing, syscalls, sorting) count as work of
// the layer that called them. It returns seconds per layer, seconds in
// samples under ckpt.New, and the total.
func foldTraces(text []byte) (self map[string]float64, underFF, total float64, err error) {
	self = map[string]float64{}
	var cur float64
	var layer string
	var ff bool
	flush := func() {
		if cur == 0 {
			return
		}
		if layer == "" {
			layer = "other"
		}
		self[layer] += cur
		total += cur
		if ff {
			underFF += cur
		}
		cur, layer, ff = 0, "", false
	}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	inBody, leaf := false, false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBody, leaf = true, true
			continue
		}
		fields := strings.Fields(line)
		if !inBody || len(fields) == 0 {
			continue
		}
		if leaf {
			// "      10ms   pkg.fn": the sample's value, then its leaf frame.
			d, perr := time.ParseDuration(fields[0])
			if perr != nil || len(fields) < 2 {
				return nil, 0, 0, fmt.Errorf("pprof -traces: bad sample line %q", line)
			}
			cur, leaf = d.Seconds(), false
		}
		fn := fields[len(fields)-1]
		if strings.HasPrefix(fn, "repro/internal/ckpt.New") {
			ff = true
		}
		if layer == "" {
			layer = layerOf(fn)
		}
	}
	flush()
	return self, underFF, total, sc.Err()
}

// layerOf maps a function to its layer: the repository package name, or
// "runtime"; "" for frames charged to their caller.
func layerOf(fn string) string {
	if fn == "runtime.asyncPreempt" {
		return "" // a preemption point inside the interrupted function
	}
	pkg := fn
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.Index(pkg, "."); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case pkg == "runtime":
		return "runtime"
	case strings.HasPrefix(pkg, "repro/internal/"):
		name := strings.TrimPrefix(pkg, "repro/internal/")
		for _, l := range profiledLayers {
			if l == name {
				return name
			}
		}
		return "other"
	case strings.HasPrefix(pkg, "repro"):
		return "other"
	}
	return ""
}
