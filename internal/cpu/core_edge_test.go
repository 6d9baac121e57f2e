package cpu

import (
	"reflect"
	"testing"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/prefetch"
)

// Edge-case and microarchitectural-behaviour tests beyond the differential
// suite in core_test.go.

func TestROBFillStall(t *testing.T) {
	// A load that misses to DRAM at the head blocks commit; the ROB must
	// fill and dispatch must stall rather than wrap or corrupt state.
	b := isa.NewBuilder()
	b.Movi(isa.R(1), 0x100000)
	b.Ld(isa.R(2), isa.R(1), 0) // cold DRAM miss (~230 cycles)
	for i := 0; i < 400; i++ {  // more than ROB entries of fodder
		b.Addi(isa.R(3), isa.R(3), 1)
	}
	b.Halt()
	core := newTestCore(b.MustProgram(), mem.New(), nil)
	if _, err := core.Run(1<<20, 1<<20); err != nil {
		t.Fatal(err)
	}
	if !core.Halted() {
		t.Fatal("did not halt")
	}
	if core.Regs()[3] != 400 {
		t.Errorf("r3 = %d", core.Regs()[3])
	}
}

func TestWrongPathLoadsCounted(t *testing.T) {
	// A hard-to-predict branch guards a load; wrong-path speculation should
	// issue (and squash) some of those loads.
	prog := isa.MustAssemble(`
		movi r1, 12345
		movi r2, 300
		movi r7, 0x50000
	loop:
		slli r4, r1, 13
		xor  r1, r1, r4
		srli r4, r1, 7
		xor  r1, r1, r4
		andi r5, r1, 1
		beqz r5, skip
		ld   r6, 0(r7)
		addi r7, r7, 64
	skip:
		addi r2, r2, -1
		bnez r2, loop
		halt
	`)
	core := newTestCore(prog, mem.New(), nil)
	if _, err := core.Run(1<<20, 1<<21); err != nil {
		t.Fatal(err)
	}
	if core.Stats.BranchMispredicts == 0 {
		t.Skip("predictor got everything right; nothing to observe")
	}
	if core.Stats.WrongPathLoads == 0 {
		t.Error("mispredicts occurred but no wrong-path loads were counted")
	}
}

func TestIndirectJumpViaBTB(t *testing.T) {
	// A JR with a stable target: after BTB training, fetch should follow it
	// without stalling, visible as improved IPC versus the first iterations.
	base := int64(isa.DefaultTextBase)
	b := isa.NewBuilder()
	b.Movi(isa.R(1), 2000) // iterations
	loop := b.Here()
	b.Movi(isa.R(2), base+4*4) // address of 'land'
	b.Jr(isa.R(2))
	b.Nop() // skipped
	// land:
	b.Addi(isa.R(1), isa.R(1), -1)
	b.Bnez(isa.R(1), loop)
	b.Halt()
	core := newTestCore(b.MustProgram(), mem.New(), nil)
	if _, err := core.Run(1<<20, 1<<20); err != nil {
		t.Fatal(err)
	}
	if !core.Halted() {
		t.Fatal("did not halt")
	}
	if ipc := core.Stats.IPC(); ipc < 0.8 {
		t.Errorf("JR loop IPC = %.3f; BTB steering seems broken", ipc)
	}
}

func TestPrefetchIssueAndDropStats(t *testing.T) {
	// A prefetcher that always asks for the same two blocks: the first
	// requests issue, later ones are dropped as resident.
	pf := &fixedPF{addrs: []uint64{0x77000, 0x77040}}
	prog := isa.MustAssemble(`
		movi r10, 500
	loop:
		addi r10, r10, -1
		bnez r10, loop
		halt
	`)
	core := newTestCore(prog, mem.New(), pf)
	if _, err := core.Run(1<<20, 1<<20); err != nil {
		t.Fatal(err)
	}
	if core.Stats.PrefetchIssued != 2 {
		t.Errorf("issued = %d, want 2", core.Stats.PrefetchIssued)
	}
	if core.Stats.PrefetchDropped == 0 {
		t.Error("no drops despite repeated requests")
	}
}

type fixedPF struct {
	prefetch.Base
	addrs []uint64
}

func (f *fixedPF) Name() string { return "fixed" }
func (f *fixedPF) AppendTick(dst []prefetch.Request, _ uint64) []prefetch.Request {
	for _, a := range f.addrs {
		dst = append(dst, prefetch.Request{Addr: a, LoadPC: 0x1000})
	}
	return dst
}

func TestHaltedCoreCycleIsNoop(t *testing.T) {
	core := newTestCore(isa.MustAssemble("halt"), mem.New(), nil)
	if _, err := core.Run(10, 1000); err != nil {
		t.Fatal(err)
	}
	cycles := core.Stats.Cycles
	core.Cycle(cycles + 1)
	core.Cycle(cycles + 2)
	if core.Stats.Cycles != cycles {
		t.Error("halted core kept counting cycles")
	}
}

func TestRunCycleBound(t *testing.T) {
	// An infinite loop must stop at the cycle bound without error.
	core := newTestCore(isa.MustAssemble("loop: jmp loop"), mem.New(), nil)
	n, err := core.Run(1<<40, 500)
	if err != nil {
		t.Fatal(err)
	}
	if n != 500 {
		t.Errorf("cycles = %d, want 500", n)
	}
	if core.Halted() {
		t.Error("infinite loop halted")
	}
}

func TestSquashRestoresRATAcrossCommittedProducers(t *testing.T) {
	// Construct a case where a producer commits while a mispredicting
	// branch is in flight: the RAT restore must fall back to the committed
	// register file, not a recycled ROB slot. The xorshift pattern forces
	// mispredicts; correctness is checked architecturally.
	prog := isa.MustAssemble(`
		movi r1, 99
		movi r2, 400
		movi r3, 0
	loop:
		mul  r4, r1, r1      ; long-latency producer
		slli r5, r1, 13
		xor  r1, r1, r5
		srli r5, r1, 7
		xor  r1, r1, r5
		andi r6, r1, 1
		beqz r6, skip
		add  r3, r3, r4      ; consumer of r4 across the branch
	skip:
		addi r2, r2, -1
		bnez r2, loop
		halt
	`)
	runBoth(t, prog, mem.New(), 1<<20)
}

func TestFetchStopsAtProgramEnd(t *testing.T) {
	// Fall through past the last instruction (no halt on the wrong path):
	// fetch must stall gracefully, and the committed path must still halt.
	prog := isa.MustAssemble(`
		movi r1, 1
		bnez r1, done     ; always taken, but predictor may guess wrong
		addi r2, r2, 1
	done:
		halt
	`)
	core := newTestCore(prog, mem.New(), nil)
	if _, err := core.Run(1000, 100000); err != nil {
		t.Fatal(err)
	}
	if !core.Halted() {
		t.Error("did not halt")
	}
	if core.Regs()[2] != 0 {
		t.Errorf("wrong-path effect committed: r2=%d", core.Regs()[2])
	}
}

func TestMulLatencyConfig(t *testing.T) {
	// A serial MUL chain's runtime scales with the configured latency.
	build := func() *isa.Program {
		b := isa.NewBuilder()
		b.Movi(isa.R(1), 3)
		for i := 0; i < 500; i++ {
			b.Mul(isa.R(1), isa.R(1), isa.R(1))
		}
		b.Halt()
		return b.MustProgram()
	}
	cycles := map[uint64]uint64{}
	for _, lat := range []uint64{1, 4} {
		cfg := DefaultConfig()
		cfg.MulLatency = lat
		dram := cache.NewDRAM()
		llc := cache.New(cache.Config{Name: "L3", Bytes: 1 << 20, Ways: 16, Latency: 20}, dram)
		hier := cache.NewHierarchy(cache.DefaultHierarchyConfig(), llc, 0)
		core := New(cfg, build(), mem.New(), hier,
			branch.New(branch.DefaultConfig()),
			branch.NewConfidence(branch.DefaultConfidenceConfig()), prefetch.None{})
		if _, err := core.Run(1<<20, 1<<20); err != nil {
			t.Fatal(err)
		}
		cycles[lat] = core.Stats.Cycles
	}
	if cycles[4] < cycles[1]+1000 {
		t.Errorf("mul latency ignored: %v", cycles)
	}
}

func TestCommitWidthBound(t *testing.T) {
	// IPC can never exceed the configured width.
	b := isa.NewBuilder()
	for i := 0; i < 4000; i++ {
		b.Addi(isa.R(1+i%16), isa.RZero, 1)
	}
	b.Halt()
	for _, w := range []int{2, 4} {
		cfg := DefaultConfig().WithWidth(w)
		dram := cache.NewDRAM()
		llc := cache.New(cache.Config{Name: "L3", Bytes: 1 << 20, Ways: 16, Latency: 20}, dram)
		hier := cache.NewHierarchy(cache.DefaultHierarchyConfig(), llc, 0)
		core := New(cfg, b.MustProgram(), mem.New(), hier,
			branch.New(branch.DefaultConfig()),
			branch.NewConfidence(branch.DefaultConfidenceConfig()), prefetch.None{})
		if _, err := core.Run(1<<20, 1<<20); err != nil {
			t.Fatal(err)
		}
		if ipc := core.Stats.IPC(); ipc > float64(w) {
			t.Errorf("width %d: IPC %.3f exceeds width", w, ipc)
		}
	}
}

// eventCounts is what runEventCore saw skipped and held.
type eventCounts struct {
	settledSkips uint64 // cycles skipped with a settled blocked load pending
	busySkips    uint64 // cycles skipped with the prefetch engine busy
	heldTicks    uint64 // run-ahead ticks NextEvent held for a real fill
}

// runEventCore drives c the way sim's event loop does: tick, ask NextEvent
// with the cycle bound as the horizon, credit the skipped cycles with
// AddIdleCycles, jump. It stops where the naive Run with the same bound
// does: at the halt, or with exactly maxCycles counted. It checks
// CheckSched after every tick and counts the skips pendSettled makes
// possible (a settled blocked load pending), those NextEvent's engine
// run-ahead makes possible (the engine busy), and the run-ahead ticks held
// for the cycle NextEvent returned.
func runEventCore(t *testing.T, c *Core, maxCycles uint64) eventCounts {
	t.Helper()
	var n eventCounts
	for now := uint64(0); now < maxCycles; {
		c.Cycle(now)
		if err := c.CheckSched(); err != nil {
			t.Fatalf("cycle %d: %v", now, err)
		}
		if c.Halted() {
			break
		}
		busy := !c.pf.Idle()
		next := min(c.NextEvent(now, maxCycles), maxCycles)
		if c.pfHeld {
			n.heldTicks++
		}
		if gap := next - now - 1; gap > 0 {
			if bmAny(c.pendBM) {
				n.settledSkips += gap
			}
			if busy {
				n.busySkips += gap
			}
			c.AddIdleCycles(now+1, gap)
		}
		now = next
	}
	return n
}

// streamProgram walks an array in 256-byte steps: independent loads that
// miss to DRAM and fill the ROB, with a loop B-Fetch's lookahead walks
// ahead of them, emitting blocks not yet in the L1D.
func streamProgram() (*isa.Program, *mem.Memory) {
	return isa.MustAssemble(`
		movi r1, 0x400000
	loop:
		ld   r2, 0(r1)
		add  r3, r3, r2
		addi r1, r1, 256
		jmp  loop
	`), mem.New()
}

// TestRunAheadMatchesNaive pins NextEvent's engine run-ahead to the naive
// clock for every engine: the event-driven run must end with the same core
// and L1D counters (PrefetchDropped included), registers and engine state
// as ticking every cycle. On the pointer chase the pipeline sits frozen on
// one DRAM miss at a time, and B-Fetch's lookahead keeps its engine busy
// through those stalls emitting resident blocks, so its run must skip busy
// cycles: the run-ahead, not Idle, lets the core sleep. On the stream its
// lookahead emits blocks not yet filled, so run-ahead ticks must be held
// and issued at their own cycle.
func TestRunAheadMatchesNaive(t *testing.T) {
	const cycles = 60_000
	programs := []struct {
		name string
		mk   func() (*isa.Program, *mem.Memory)
	}{{"chase", chaseProgram}, {"stream", streamProgram}}
	for _, p := range programs {
		for _, eng := range allocEngines {
			t.Run(p.name+"/"+eng.name, func(t *testing.T) {
				prog, image := p.mk()
				naive := newAllocCore(prog, image.Clone(), eng.mk)
				if _, err := naive.Run(1<<40, cycles); err != nil {
					t.Fatal(err)
				}
				event := newAllocCore(prog, image.Clone(), eng.mk)
				n := runEventCore(t, event, cycles)
				t.Logf("%+v; %d prefetches issued, %d dropped",
					n, event.Stats.PrefetchIssued, event.Stats.PrefetchDropped)

				if naive.Stats != event.Stats {
					t.Errorf("stats diverge\nnaive: %+v\nevent: %+v", naive.Stats, event.Stats)
				}
				if naive.hier.L1D.Stats != event.hier.L1D.Stats {
					t.Errorf("L1D stats diverge\nnaive: %+v\nevent: %+v", naive.hier.L1D.Stats, event.hier.L1D.Stats)
				}
				if naive.Regs() != event.Regs() {
					t.Errorf("registers diverge\nnaive: %v\nevent: %v", naive.Regs(), event.Regs())
				}
				if !reflect.DeepEqual(naive.pf, event.pf) {
					t.Errorf("%s engine state diverges", eng.name)
				}
				if eng.name != "bfetch" {
					return
				}
				if p.name == "chase" && n.busySkips == 0 {
					t.Error("no cycles skipped with the engine busy; the run-ahead never ran")
				}
				if p.name == "stream" && n.heldTicks == 0 {
					t.Error("no run-ahead tick held; the held-fill path never ran")
				}
			})
		}
	}
}

func TestSettledLoadsLetCoreSleep(t *testing.T) {
	// The store's address waits on a cold DRAM miss, so the younger loads —
	// whose own addresses are ready — issue, find an unknown older store
	// address and park on disambiguation. Their verdict cannot change until
	// the store resolves, so the core must sleep through the miss instead of
	// re-walking them every cycle, and the event-driven run must match the
	// naive one counter for counter, CPI buckets included.
	image := mem.New()
	image.WriteInt64(0x100000, 0x200000) // the store's base pointer
	prog := isa.MustAssemble(`
		movi r1, 0x100000
		ld   r2, 0(r1)        ; DRAM miss: the store's base
		st   r1, 0(r2)        ; address unknown until r2 arrives
		ld   r3, 0x1000(r1)   ; younger loads, parked behind the store
		ld   r4, 0x2000(r1)
		ld   r5, 0x3000(r1)
		add  r6, r3, r4
		add  r6, r6, r5
		halt
	`)
	cfg := DefaultConfig()
	cfg.CPIStack = true
	none := allocEngines[0].mk

	naive := newAllocCoreCfg(cfg, prog, image.Clone(), none)
	if _, err := naive.Run(100, 100_000); err != nil {
		t.Fatal(err)
	}
	event := newAllocCoreCfg(cfg, prog, image.Clone(), none)
	skips := runEventCore(t, event, 100_000).settledSkips

	if !naive.Halted() || !event.Halted() {
		t.Fatalf("halted: naive %v, event %v", naive.Halted(), event.Halted())
	}
	if skips < 100 {
		t.Errorf("skipped %d cycles with settled loads pending; want the DRAM stall (>= 100)", skips)
	}
	if naive.Stats != event.Stats {
		t.Errorf("stats diverge\nnaive: %+v\nevent: %+v", naive.Stats, event.Stats)
	}
	if naive.Regs() != event.Regs() {
		t.Errorf("registers diverge\nnaive: %v\nevent: %v", naive.Regs(), event.Regs())
	}
}

func TestUndoRecoveryDropsCommittedProducer(t *testing.T) {
	// Each iteration's branch waits on a cold DRAM miss and is taken at
	// random. When it was predicted not taken, the fall-through addis are
	// squashed writers, and recover's undo walk must put back what they
	// displaced:
	//   - r4's prevMap names P, a multiply that committed while the branch
	//     was in flight: the dropped-mapping case, where the consumer must
	//     read r4 from the committed register file;
	//   - r9's prevMap names Q, a load chained on the same miss that is
	//     still in flight when the branch resolves: the live case, where a
	//     missing or misordered undo leaves the consumer reading a stale r9.
	const n = 300
	image := mem.New()
	x := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		image.WriteInt64(uint64(0x100000+64*i), int64(x&1))
		image.WriteInt64(uint64(0x100000+64*i+8), int64(0x800000+64*i))
		image.WriteInt64(uint64(0x800000+64*i), int64(i+3))
	}
	prog := isa.MustAssemble(`
		movi r1, 0x100000
		movi r2, 300
		movi r3, 0
	loop:
		mul  r4, r2, r2      ; P: commits during the miss below
		ld   r5, 0(r1)       ; cold DRAM miss
		ld   r8, 8(r1)       ; same block: returns with r5
		ld   r9, 0(r8)       ; Q: a second miss, in flight when the branch resolves
		beqz r5, skip        ; resolves only when the miss returns
		addi r4, r4, 1       ; squashed writers when the branch is taken
		addi r9, r9, 1
	skip:
		add  r3, r3, r4
		add  r3, r3, r9
		addi r1, r1, 64
		addi r2, r2, -1
		bnez r2, loop
		halt
	`)
	core, _ := runBoth(t, prog, image, 1<<20)
	if core.Stats.BranchMispredicts == 0 || core.Stats.Squashed == 0 {
		t.Errorf("no squashes (mispredicts %d, squashed %d): the kernel does not exercise recovery",
			core.Stats.BranchMispredicts, core.Stats.Squashed)
	}
	// The event-driven run checks the scheduling state after every tick
	// (CheckSched) and must match the naive run.
	event := newTestCore(prog, image.Clone(), nil)
	runEventCore(t, event, 1<<20)
	if event.Stats != core.Stats {
		t.Errorf("event-driven stats diverge\nnaive: %+v\nevent: %+v", core.Stats, event.Stats)
	}
}
