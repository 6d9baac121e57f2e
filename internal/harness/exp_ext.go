package harness

import (
	"fmt"

	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Extension experiments beyond the paper's figures: the heavy-weight ISB
// comparator (§III-B positions B-Fetch against it qualitatively: comparable
// accuracy on irregular codes, but megabytes of off-chip meta-data) and the
// lookahead-depth characterization backing the paper's "average lookahead
// depth is 8 BB at 0.75 confidence" observation.

func init() {
	registerExperiment(Experiment{
		ID:    "ext-isb",
		Title: "Extension: B-Fetch vs the heavy-weight ISB and STeMS prefetchers (storage vs performance)",
		Paper: "§III-B (qualitative): STeMS ≈ SMS+3% with MBs of off-chip meta-data; ISB high irregular accuracy with ≈8 MB off-chip + 8.4% traffic",
		Run:   runExtISB,
	})
	registerExperiment(Experiment{
		ID:    "ext-bw",
		Title: "Extension: DRAM bandwidth sensitivity (prefetching under channel pressure)",
		Paper: "§V-A fixes the channel at 12.8 GB/s; this sweep varies it to show accuracy's value when bandwidth is scarce",
		Run:   runExtBandwidth,
	})
	registerExperiment(Experiment{
		ID:    "ext-depth",
		Title: "Extension: B-Fetch lookahead depth vs confidence threshold",
		Paper: "§V-B1 (in passing): average lookahead depth ≈8 BB at 0.75 path confidence",
		Run:   runExtDepth,
	})
}

func runExtISB(p Params) ([]*stats.Table, error) {
	base := sim.Default(sim.PFNone)
	configs := []sim.Config{
		sim.Default(sim.PFSMS),
		sim.Default(sim.PFBFetch),
		sim.Default(sim.PFISB),
		sim.Default(sim.PFSTeMS),
	}
	data, lcs, err := speedups(p, base, configs)
	if err != nil {
		return nil, err
	}
	t := speedupTable("Extension: SMS vs B-Fetch vs ISB vs STeMS speedups", p.workloads(),
		[]string{"SMS", "Bfetch", "ISB", "STeMS"}, data)
	lt := lifecycleTable("Extension (obs): prefetch lifecycle by engine",
		[]string{"SMS", "Bfetch", "ISB", "STeMS"}, lcs)

	// Meta-data growth: ISB's and STeMS's state after their mcf runs (the
	// speedup batch's, answered from the memo), against B-Fetch's fixed
	// budget.
	meta := stats.NewTable("Extension: prefetcher state after an mcf run",
		"prefetcher", "state", "location")
	isbMeta, err := p.mcfMetaBytes(sim.PFISB)
	if err != nil {
		return nil, err
	}
	stemsMeta, err := p.mcfMetaBytes(sim.PFSTeMS)
	if err != nil {
		return nil, err
	}
	meta.AddRow("B-Fetch", "12.84 KB (fixed)", "on-chip")
	meta.AddRow("SMS", "≈65 KB (fixed)", "on-chip")
	meta.AddRow("ISB", fmt.Sprintf("%.1f KB (grows with footprint)", float64(isbMeta)/1024),
		"off-chip in the original (≈8 MB budget, +8.4% traffic)")
	meta.AddRow("STeMS", fmt.Sprintf("%.1f KB (grows with history)", float64(stemsMeta)/1024),
		"temporal log off-chip in the original (MBs)")
	return []*stats.Table{t, lt, meta}, nil
}

// mcfMetaBytes reads a prefetcher's meta-data footprint at the end of its
// solo mcf run. A result stored before the prefetcher exported the metric
// lacks it; that is an error, not a zero-byte footprint.
func (p Params) mcfMetaBytes(kind sim.PrefetcherKind) (uint64, error) {
	res, err := p.Runner.Run(runner.Solo(sim.Default(kind), "mcf", p.Opts))
	if err != nil {
		return 0, fmt.Errorf("%s on mcf: %w", kind, err)
	}
	v, ok := res.Metrics.Get("c0.pf.meta_bytes")
	if !ok {
		return 0, fmt.Errorf("%s on mcf: result lacks c0.pf.meta_bytes (a store entry written before the metric existed; use a fresh store directory)", kind)
	}
	return v, nil
}

// runExtBandwidth measures SMS and B-Fetch speedups while scaling the DRAM
// channel from half to double the Table II bandwidth. Useless prefetches
// cost channel slots, so the accuracy gap should widen as bandwidth shrinks.
func runExtBandwidth(p Params) ([]*stats.Table, error) {
	t := stats.NewTable("Extension: DRAM bandwidth sensitivity (geomean speedup over same-bandwidth baseline)",
		"cycles_per_64B", "GBps_at_3.2GHz", "SMS", "Bfetch")
	cpfs := []uint64{32, 16, 8}
	kinds := []sim.PrefetcherKind{sim.PFNone, sim.PFSMS, sim.PFBFetch}
	ws := p.workloads()
	var jobs []runner.Job
	for _, cpf := range cpfs {
		for _, name := range ws {
			for _, kind := range kinds {
				cfg := sim.Default(kind)
				cfg.DRAMCyclesPerFill = cpf
				jobs = append(jobs, runner.Solo(cfg, name, p.Opts))
			}
		}
	}
	outs := p.Runner.RunAll(jobs)
	k := 0
	for _, cpf := range cpfs {
		var smsSp, bfSp []float64
		for _, name := range ws {
			ipc := map[sim.PrefetcherKind]float64{}
			for _, kind := range kinds {
				o := outs[k]
				k++
				if o.Err != nil {
					return nil, fmt.Errorf("%s on %s at %d cycles/fill: %w", kind, name, cpf, o.Err)
				}
				ipc[kind] = o.Result.IPC[0]
			}
			smsSp = append(smsSp, ipc[sim.PFSMS]/ipc[sim.PFNone])
			bfSp = append(bfSp, ipc[sim.PFBFetch]/ipc[sim.PFNone])
		}
		p.logf("  %d cycles/fill done", cpf)
		t.AddRow(fmt.Sprint(cpf), fmt.Sprintf("%.1f", 64.0/float64(cpf)*3.2),
			stats.Geomean(smsSp), stats.Geomean(bfSp))
	}
	return []*stats.Table{t}, nil
}

func runExtDepth(p Params) ([]*stats.Table, error) {
	t := stats.NewTable("Extension: B-Fetch lookahead behaviour vs confidence threshold",
		"threshold", "avg_depth_BB", "stops_conf", "stops_brtc", "geomean_speedup")
	thresholds := []float64{0.45, 0.60, 0.75, 0.90, 0.97}
	ws := p.workloads()
	base, err := p.baselineResults(sim.Default(sim.PFNone), ws)
	if err != nil {
		return nil, err
	}

	var jobs []runner.Job
	for _, th := range thresholds {
		cfg := sim.Default(sim.PFBFetch)
		cfg.BFetch.PathThreshold = th
		for _, name := range ws {
			jobs = append(jobs, runner.Solo(cfg, name, p.Opts))
		}
	}
	outs := p.Runner.RunAll(jobs)

	for ti, th := range thresholds {
		var (
			steps, starts, stopsConf, stopsBrtc uint64
			speedup                             []float64
		)
		for wi, name := range ws {
			o := outs[ti*len(ws)+wi]
			if o.Err != nil {
				return nil, fmt.Errorf("threshold %.2f on %s: %w", th, name, o.Err)
			}
			speedup = append(speedup, o.Result.IPC[0]/base[wi].IPC[0])
			// The engine's counters over the measured window, under their
			// canonical registry names.
			get := func(name string) uint64 {
				v, _ := o.Result.Metrics.Get("c0.pf." + name)
				return v
			}
			steps += get("lookahead_steps")
			starts += get("lookahead_starts")
			stopsConf += get("lookahead_stops")
			stopsBrtc += get("brtc_misses")
		}
		avg := 0.0
		if starts > 0 {
			avg = float64(steps) / float64(starts)
		}
		p.logf("  threshold %.2f: depth %.1f", th, avg)
		t.AddRow(fmt.Sprintf("%.2f", th), avg, stopsConf, stopsBrtc, stats.Geomean(speedup))
	}
	return []*stats.Table{t}, nil
}
