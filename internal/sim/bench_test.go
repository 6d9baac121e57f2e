package sim

import "testing"

// BenchmarkSimMemoryBound runs a full warmup+measure protocol on mcf — a
// pointer chase that spends most of its cycles stalled on DRAM — under both
// clock strategies. The ratio naive/event is the event-driven loop's whole
// point: stall cycles dominate, and the event loop skips them. ticks/op is
// the deterministic work behind the time: Core.Cycle calls per run.
func BenchmarkSimMemoryBound(b *testing.B) {
	opts := RunOpts{WarmupInsts: 5_000, MeasureInsts: 25_000}
	for _, naive := range []bool{true, false} {
		b.Run(loopName(naive), func(b *testing.B) {
			b.ReportAllocs()
			var cycles, ticks uint64
			for i := 0; i < b.N; i++ {
				res, n, err := runLoopTicks(Default(PFNone), []string{"mcf"}, opts, naive)
				if err != nil {
					b.Fatal(err)
				}
				cycles += res.Cycles
				ticks += n
			}
			b.ReportMetric(float64(cycles)/1e3/float64(b.Elapsed().Seconds())/1e3, "Msimcycles/s")
			b.ReportMetric(float64(ticks)/float64(b.N), "ticks/op")
		})
	}
}

// BenchmarkSimScale is the scale-out engine's headline measurement: a
// 16-core memory-diverse mix on the banked/channeled configuration, under
// (a) the naive per-cycle scan and (b) the indexed event loop. Results are
// byte-identical across both, so the wall clock differs only by the work
// each loop does, which ticks/op counts.
func BenchmarkSimScale(b *testing.B) {
	opts := RunOpts{WarmupInsts: 2_000, MeasureInsts: 8_000}
	for _, naive := range []bool{true, false} {
		b.Run(loopName(naive), func(b *testing.B) {
			cfg := DefaultScale(PFBFetch, len(mix16))
			b.ReportAllocs()
			var coreCycles, ticks uint64
			for i := 0; i < b.N; i++ {
				res, n, err := runLoopTicks(cfg, mix16, opts, naive)
				if err != nil {
					b.Fatal(err)
				}
				coreCycles += res.Cycles * uint64(len(mix16))
				ticks += n
			}
			b.ReportMetric(float64(coreCycles)/1e6/b.Elapsed().Seconds(), "Mcorecycles/s")
			b.ReportMetric(float64(ticks)/float64(b.N), "ticks/op")
		})
	}
}
