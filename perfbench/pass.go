package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/obs"
	"repro/internal/sim"
)

// passOut is what one pass reports to the parent process.
type passOut struct {
	SetupS     float64            `json:"setup_s"`
	WallS      float64            `json:"wall_s"`
	Insts      uint64             `json:"insts"` // committed, warmup and measure windows, all cores and simulations
	PeakRSSMiB float64            `json:"peak_rss_mb"`
	Ops        []op               `json:"ops"`
	Layers     map[string]float64 `json:"layers"`
	Spans      []span             `json:"spans,omitempty"`
}

// op is one checked operation: a simulation, identified by its digest, or a
// whole-pass check. Err is empty when every check on it passed.
type op struct {
	Name   string `json:"name"`
	Digest string `json:"digest,omitempty"`
	Err    string `json:"err,omitempty"`
}

func (p *passOut) addOp(name, digest, err string) {
	p.Ops = append(p.Ops, op{Name: name, Digest: digest, Err: err})
}

func (p *passOut) addSim(name string, r sim.Result, err string) {
	p.addOp(name, digest(r), err)
}

// digest hashes a simulation's result without its CPI-stack attribution,
// which only traced passes turn on and which changes no other counter.
func digest(r sim.Result) string {
	r.Core = append(r.Core[:0:0], r.Core...)
	for i := range r.Core {
		r.Core[i].CPI = obs.CPIStack{}
	}
	var samples []obs.Sample
	for _, s := range r.Metrics.Samples {
		if !strings.Contains(s.Name, "cpi.") {
			samples = append(samples, s)
		}
	}
	r.Metrics.Samples = samples
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // sim.Result holds only numbers, strings and slices of them
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8])
}

// runPass runs one pass of the named workload in this process.
func runPass(name string, env *passEnv) (*passOut, error) {
	env.out = &passOut{Layers: map[string]float64{}}
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	var err error
	switch name {
	case wlCoreBound:
		err = env.runSolo(env.setupCoreBound)
	case wlCMP16:
		err = env.runSolo(env.setupCMP16)
	case wlFig8:
		err = env.runFig8()
	default:
		err = fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		return nil, err
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	l := env.out.Layers
	l["runtime.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	l["runtime.gc_cycles"] = float64(after.NumGC - before.NumGC)
	l["runtime.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	if env.tr != nil {
		env.tr.layers(l)
		env.out.Spans = env.tr.spans
		if err := env.foldProfile(l); err != nil {
			return nil, err
		}
	}
	return env.out, nil
}

// tally sums the simulated counters the per-layer metrics are made of.
type tally struct {
	sysCycles, coreCycles, committed uint64
	branches, mispredicts            uint64
	l1dAcc, l1dMiss, llcAcc, llcMiss uint64
	dramFills, dramStall             uint64
	// B-Fetch systems only.
	pfIssued, pfDropped, lcIssued, lcUseful uint64
	cpi                                     obs.CPIStack
}

func (t *tally) add(r sim.Result, bfetch bool) {
	t.sysCycles += r.Cycles
	for i, c := range r.Core {
		t.coreCycles += c.Cycles
		t.committed += c.Committed
		t.branches += c.BranchesCommitted
		t.mispredicts += c.BranchMispredicts
		t.cpi.AddStack(&c.CPI)
		t.l1dAcc += r.L1D[i].Accesses
		t.l1dMiss += r.L1D[i].Misses
		if bfetch {
			t.pfIssued += c.PrefetchIssued
			t.pfDropped += c.PrefetchDropped
		}
	}
	if bfetch {
		for _, lc := range r.Lifecycle {
			t.lcIssued += lc.Issued
			t.lcUseful += lc.Useful()
		}
	}
	t.llcAcc += r.LLC.Accesses
	t.llcMiss += r.LLC.Misses
	t.dramFills += r.DRAM.DemandFills + r.DRAM.PrefetchFills
	t.dramStall += r.DRAM.StallCycles
}

func (t *tally) layers(l map[string]float64) {
	l["sim.cycles"] = float64(t.sysCycles)
	l["cpu.committed"] = float64(t.committed)
	l["cpu.ipc"] = ratio(float64(t.committed), float64(t.coreCycles))
	l["branch.mispredict_rate"] = ratio(float64(t.mispredicts), float64(t.branches))
	l["cache.l1d_accesses"] = float64(t.l1dAcc)
	l["cache.l1d_miss_rate"] = ratio(float64(t.l1dMiss), float64(t.l1dAcc))
	l["cache.llc_accesses"] = float64(t.llcAcc)
	l["cache.llc_miss_rate"] = ratio(float64(t.llcMiss), float64(t.llcAcc))
	l["cache.dram_fills"] = float64(t.dramFills)
	l["cache.dram_stall_cycles"] = float64(t.dramStall)
	l["core.pf_issued"] = float64(t.pfIssued)
	l["core.pf_useful_ratio"] = ratio(float64(t.lcUseful), float64(t.lcIssued))
	l["core.pf_dropped_ratio"] = ratio(float64(t.pfDropped), float64(t.pfIssued+t.pfDropped))
	if total := t.cpi.Total(); total > 0 {
		for b, v := range t.cpi {
			l["cpi."+obs.CPIBucketNames[b]] = float64(v) / float64(total)
		}
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile returns the q-quantile of sorted xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

// peakRSSMiB reads the process's peak resident set (VmHWM) from procfs.
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM line in /proc/self/status")
}
