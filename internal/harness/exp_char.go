package harness

import (
	"fmt"

	"repro/internal/branch"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/sim"
	"repro/internal/sms"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Characterization and accounting experiments: Figures 3 and 7, Tables I
// and II.

func init() {
	registerExperiment(Experiment{
		ID:    "fig3",
		Title: "CDFs of register-content and effective-address variation across basic blocks",
		Paper: "≈92/89/82% of register deltas within one 64 B block at 1/3/12 BB; EA deltas spread far wider",
		Run:   runFig3,
	})
	registerExperiment(Experiment{
		ID:    "fig7",
		Title: "Breakdown of branch instructions fetched per cycle (4-wide)",
		Paper: "≥99.95% of branch-carrying fetch cycles hold ≤2 branches",
		Run:   runFig7,
	})
	registerExperiment(Experiment{
		ID:    "tab1",
		Title: "Hardware storage overhead: B-Fetch components vs SMS",
		Paper: "B-Fetch 12.84 KB total vs SMS 36.57 KB (65% less)",
		Run:   runTab1,
	})
	registerExperiment(Experiment{
		ID:    "tab2",
		Title: "Baseline system configuration",
		Paper: "4-wide O3, 192 ROB, 64 KB L1, 256 KB L2, 2 MB/core L3, 200-cycle DRAM, 6.55 KB tournament predictor",
		Run:   runTab2,
	})
}

// charInsts is the functional-profile length per workload for fig3/fig7.
const charInsts = 150_000

func runFig3(p Params) ([]*stats.Table, error) {
	// One profile per workload, collected across the pool, merged in
	// workload order. Besides the parallelism, per-workload profiles keep
	// each program's snapshot ring and static-load history to itself (a
	// single profile threaded through all 18 programs mixes state across
	// the boundaries, since static load indexes collide between programs).
	ws := p.workloads()
	eng := p.Runner
	profs := make([]*emu.DeltaProfile, len(ws))
	if err := eng.Map(len(ws), func(i int) error {
		w, err := workload.ByName(ws[i])
		if err != nil {
			return err
		}
		prog, image := w.Build()
		cpu := emu.New(prog, image)
		profs[i] = emu.NewDeltaProfile()
		profs[i].Attach(cpu)
		n, err := cpu.Run(charInsts)
		eng.AddEmuInsts(n)
		if err != nil {
			return fmt.Errorf("fig3 profile of %s: %w", ws[i], err)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	prof := emu.NewDeltaProfile()
	for i, name := range ws {
		prof.Merge(profs[i])
		p.logf("  %-12s profiled", name)
	}

	mk := func(title string, cdf func(int) [emu.DeltaBuckets]float64) *stats.Table {
		t := stats.NewTable(title, "delta_blocks", "1BB", "3BB", "12BB")
		var curves [3][emu.DeltaBuckets]float64
		for d := range curves {
			curves[d] = cdf(d)
		}
		for x := 0; x < emu.DeltaBuckets; x++ {
			label := fmt.Sprint(x)
			if x == emu.DeltaBuckets-1 {
				label = fmt.Sprintf("≥%d", x)
			}
			t.AddRow(label, curves[0][x], curves[1][x], curves[2][x])
		}
		return t
	}
	return []*stats.Table{
		mk("Figure 3a: CDF of register-content variation (cache blocks)", prof.RegCDF),
		mk("Figure 3b: CDF of effective-address variation (cache blocks)", prof.EACDF),
	}, nil
}

func runFig7(p Params) ([]*stats.Table, error) {
	t := stats.NewTable("Figure 7: branches per branch-carrying fetch cycle",
		"benchmark", "1_branch", "2_branches", "3_branches", "4_branches")
	ws := p.workloads()
	eng := p.Runner
	breakdowns := make([][]float64, len(ws))
	if err := eng.Map(len(ws), func(i int) error {
		w, err := workload.ByName(ws[i])
		if err != nil {
			return err
		}
		prog, image := w.Build()
		cpu := emu.New(prog, image)
		prof := emu.NewFetchGroupProfile(4)
		prof.Attach(cpu)
		n, err := cpu.Run(charInsts)
		eng.AddEmuInsts(n)
		if err != nil {
			return fmt.Errorf("fig7 profile of %s: %w", ws[i], err)
		}
		breakdowns[i] = prof.BranchBreakdown()
		return nil
	}); err != nil {
		return nil, err
	}
	var agg []float64
	aggN := 0
	for i, name := range ws {
		bd := breakdowns[i]
		t.AddRow(name, bd[0], bd[1], bd[2], bd[3])
		if agg == nil {
			agg = make([]float64, len(bd))
		}
		for j, v := range bd {
			agg[j] += v
		}
		aggN++
	}
	row := []any{"MEAN"}
	for _, v := range agg {
		row = append(row, v/float64(aggN))
	}
	t.AddRow(row...)
	return []*stats.Table{t}, nil
}

func storageOf(cfg sim.Config) int {
	bp := branch.New(cfg.Branch)
	conf := branch.NewConfidence(cfg.Confidence)
	return core.New(cfg.BFetch, bp, conf).StorageBits()
}

func runTab1(p Params) ([]*stats.Table, error) {
	cfg := sim.Default(sim.PFBFetch)
	bp := branch.New(cfg.Branch)
	conf := branch.NewConfidence(cfg.Confidence)
	bf := core.New(cfg.BFetch, bp, conf)

	kb := func(bits int) string { return fmt.Sprintf("%.2f", float64(bits)/8/1024) }

	t := stats.NewTable("Table I: hardware storage overhead (KB)",
		"prefetcher", "component", "entries", "size_KB", "paper_KB")
	bcfg := cfg.BFetch
	t.AddRow("B-Fetch", "Branch Trace Cache", bcfg.BrTCEntries, kb(bcfg.BrTCEntries*66), "2.06")
	t.AddRow("B-Fetch", "Memory History Table", bcfg.MHTEntries, kb(bcfg.MHTEntries*(32+3*85)), "4.5")
	t.AddRow("B-Fetch", "Alternate Register File", 32, kb(32*(32+8)), "0.156")
	t.AddRow("B-Fetch", "Per-Load Prefetch Filter", bcfg.FilterEntries, kb(3*bcfg.FilterEntries*3), "2.25")
	t.AddRow("B-Fetch", "Additional Cache bits", "-", kb(bcfg.L1DBlocks*11), "1.37")
	t.AddRow("B-Fetch", "Prefetch Queue", bcfg.QueueEntries, kb(bcfg.QueueEntries*42), "0.51")
	t.AddRow("B-Fetch", "Path Confidence Estimator", cfg.Confidence.Entries, kb(conf.StorageBits()), "2")
	t.AddRow("B-Fetch", "TOTAL", "-", kb(bf.StorageBits()), "12.84")

	s := sms.New(cfg.SMS)
	t.AddRow("SMS", "TOTAL (AGT + PHT + queue)", fmt.Sprintf("%d AGT / %d PHT", cfg.SMS.AGTEntries, cfg.SMS.PHTEntries),
		kb(s.StorageBits()), "36.57")
	ratio := 1 - float64(bf.StorageBits())/float64(s.StorageBits())
	t.AddRow("-", "B-Fetch saving vs SMS", "-", fmt.Sprintf("%.0f%%", 100*ratio), "65%")
	return []*stats.Table{t}, nil
}

func runTab2(p Params) ([]*stats.Table, error) {
	cfg := sim.Default(sim.PFBFetch)
	t := stats.NewTable("Table II: baseline configuration", "parameter", "value")
	t.AddRow("CPU", fmt.Sprintf("%d-wide O3 processor, %d-entry ROB", cfg.CPU.Width, cfg.CPU.ROBEntries))
	t.AddRow("L1D cache", fmt.Sprintf("%dKB %d-way, %d-cycle latency",
		cfg.Hier.L1Bytes>>10, cfg.Hier.L1Ways, cfg.Hier.L1Latency))
	t.AddRow("L2 cache", fmt.Sprintf("Unified %dKB %d-way, %d-cycle latency",
		cfg.Hier.L2Bytes>>10, cfg.Hier.L2Ways, cfg.Hier.L2Latency))
	t.AddRow("Shared L3 cache", fmt.Sprintf("%dMB/core %d-way, %d-cycle latency",
		cfg.LLCPerCore>>20, cfg.LLCWays, cfg.LLCLatency))
	t.AddRow("Off-chip DRAM", "200-cycle latency, 12.8 GB/s channel (16 cycles / 64 B)")
	t.AddRow("Branch predictor", fmt.Sprintf("%.2fKB tournament predictor",
		float64(cfg.Branch.StorageBits())/8/1024))
	t.AddRow("Branch path confidence threshold", fmt.Sprint(cfg.BFetch.PathThreshold))
	t.AddRow("Per-load filter threshold", fmt.Sprint(cfg.BFetch.FilterThreshold))
	return []*stats.Table{t}, nil
}
