package harness

import (
	"fmt"

	"repro/internal/isb"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/stems"
	"repro/internal/workload"
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

	// Meta-data growth: run ISB on a representative irregular workload and
	// report the mapping footprint against B-Fetch's fixed budget.
	meta := stats.NewTable("Extension: prefetcher state after an mcf run",
		"prefetcher", "state", "location")
	res, err := runWithISB(p, "mcf")
	if err != nil {
		return nil, err
	}
	stemsMeta, err := runWithSTeMS(p, "mcf")
	if err != nil {
		return nil, err
	}
	meta.AddRow("B-Fetch", "12.84 KB (fixed)", "on-chip")
	meta.AddRow("SMS", "≈65 KB (fixed)", "on-chip")
	meta.AddRow("ISB", fmt.Sprintf("%.1f KB (grows with footprint)", float64(res)/1024),
		"off-chip in the original (≈8 MB budget, +8.4% traffic)")
	meta.AddRow("STeMS", fmt.Sprintf("%.1f KB (grows with history)", float64(stemsMeta)/1024),
		"temporal log off-chip in the original (MBs)")
	return []*stats.Table{t, lt, meta}, nil
}

// runWithSTeMS measures STeMS's meta-data bytes after running one workload.
func runWithSTeMS(p Params, app string) (int, error) {
	w, err := workload.ByName(app)
	if err != nil {
		return 0, err
	}
	cfg := sim.Default(sim.PFSTeMS)
	s, err := sim.New(cfg, []workload.Workload{w})
	if err != nil {
		return 0, err
	}
	total := p.Opts.WarmupInsts + p.Opts.MeasureInsts
	if err := s.Run(total, total*1000); err != nil {
		return 0, err
	}
	return s.PFs[0].(*stems.STeMS).MetaBytes(), nil
}

// runWithISB measures ISB's meta-data bytes after running one workload.
func runWithISB(p Params, app string) (int, error) {
	w, err := workload.ByName(app)
	if err != nil {
		return 0, err
	}
	cfg := sim.Default(sim.PFISB)
	s, err := sim.New(cfg, []workload.Workload{w})
	if err != nil {
		return 0, err
	}
	total := p.Opts.WarmupInsts + p.Opts.MeasureInsts
	if err := s.Run(total, total*1000); err != nil {
		return 0, err
	}
	return s.PFs[0].(*isb.ISB).MetaBytes(), nil
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

	// Timed runs go through the engine as one batch; the instrumented runs
	// (engine counters are not carried through sim.Run's Result) fan out
	// over the same pool via Map, one slot per (threshold, workload) point.
	configs := make([]sim.Config, len(thresholds))
	var jobs []runner.Job
	for ti, th := range thresholds {
		cfg := sim.Default(sim.PFBFetch)
		cfg.BFetch.PathThreshold = th
		configs[ti] = cfg
		for _, name := range ws {
			jobs = append(jobs, runner.Solo(cfg, name, p.Opts))
		}
	}
	outs := p.Runner.RunAll(jobs)
	insts := make([]obs.Snapshot, len(jobs))
	if err := p.Runner.Map(len(jobs), func(i int) error {
		st, err := bfetchStats(configs[i/len(ws)], ws[i%len(ws)], p.Opts)
		if err != nil {
			return fmt.Errorf("instrumented run on %s: %w", ws[i%len(ws)], err)
		}
		insts[i] = st
		return nil
	}); err != nil {
		return nil, err
	}

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
			st := insts[ti*len(ws)+wi]
			steps += bfetchMetric(st, "lookahead_steps")
			starts += bfetchMetric(st, "lookahead_starts")
			stopsConf += bfetchMetric(st, "lookahead_stops")
			stopsBrtc += bfetchMetric(st, "brtc_misses")
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
