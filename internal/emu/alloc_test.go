//go:build !race

// The race detector's instrumentation allocates on paths that are
// allocation-free in a normal build, so this witness exists only without it.

package emu_test

import (
	"runtime"
	"testing"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/mem"
)

// mallocs counts the heap allocations n calls of f make, exactly: the
// runtime's cumulative malloc count across the window at GOMAXPROCS 1, the
// minimum over three consecutive windows (see internal/cpu's twin).
func mallocs(n int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms runtime.MemStats
	best := ^uint64(0)
	for w := 0; w < 3; w++ {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		for i := 0; i < n; i++ {
			f()
		}
		runtime.ReadMemStats(&ms)
		best = min(best, ms.Mallocs-before)
	}
	return best
}

// unalignedProgram loads and stores through a misaligned pointer, so every
// access takes mem's byte-wise slow path (Read8/Write8) instead of the
// aligned word probe.
func unalignedProgram() (*isa.Program, *mem.Memory) {
	return isa.MustAssemble(`
		movi r1, 0x10003
	loop:
		ld   r2, 0(r1)
		addi r2, r2, 1
		st   r2, 8(r1)
		jmp  loop
	`), mem.New()
}

// TestEmuZeroAlloc runs the functional emulator on both engines — the Step
// interpreter and the threaded-code Compiled.run — and requires zero heap
// allocations per 200k instructions once the kernel's pages are touched.
// Kernels that keep touching new pages (mcf, lbm) allocate one page each
// in mem.pageFor by design, so the witness uses steady-state kernels.
func TestEmuZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const insts = 200_000
	kernels := []struct {
		name  string
		build func() (*isa.Program, *mem.Memory)
	}{
		{"alu", aluProgram},
		{"gamess", func() (*isa.Program, *mem.Memory) { return benchWorkload(t, "gamess") }},
		{"unaligned", unalignedProgram},
	}
	for _, k := range kernels {
		for _, interp := range []bool{true, false} {
			name := k.name + "/compiled"
			if interp {
				name = k.name + "/interp"
			}
			t.Run(name, func(t *testing.T) {
				prog, img := k.build()
				c := emu.New(prog, img)
				emu.SetInterp(c, interp)
				run := func() {
					if _, err := c.Run(insts); err != nil {
						t.Fatal(err)
					}
				}
				run() // touch the kernel's pages, compile the program
				if n := mallocs(1, run); n != 0 {
					t.Errorf("%s: %d allocs per %d instructions, want 0", name, n, insts)
				}
				if c.Halted {
					t.Fatal("kernel halted inside the window")
				}
			})
		}
	}
}
