package runner

import (
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/store"
)

// storeOpts is tinyOpts plus a fast-forward, so the checkpoint tier is
// exercised alongside the result tier.
func storeOpts() sim.RunOpts {
	o := tinyOpts()
	o.FastForwardInsts = 5_000
	return o
}

func storeJobs() []Job {
	opts := storeOpts()
	return []Job{
		Solo(sim.Default(sim.PFNone), "mcf", opts),
		Solo(sim.Default(sim.PFBFetch), "mcf", opts),
		Solo(sim.Default(sim.PFStride), "libquantum", opts),
		Solo(sim.Default(sim.PFNone), "mcf", opts), // duplicate: memory-tier hit
	}
}

// sameResult requires two results to be identical as whole structs: a
// result read back from the store must equal the computed one.
func sameResult(t *testing.T, tag string, a, b sim.Result) {
	t.Helper()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("%s: results diverge", tag)
	}
}

// TestStoreTwoTierLookup is the heart of the durable cache: a cold engine
// computes and writes back; a fresh engine over the same directory answers
// every distinct point from disk — zero simulations, zero emulated
// instructions — with identical results.
func TestStoreTwoTierLookup(t *testing.T) {
	dir := t.TempDir()
	jobs := storeJobs()

	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold := New(4)
	cold.SetStore(st1)
	coldOut := cold.RunAll(jobs)
	if cs := cold.Stats(); cs.Runs != 3 {
		t.Fatalf("cold stats %+v, want 3 runs", cs)
	}
	// 3 distinct results + 2 distinct checkpoints, each looked up once and
	// written back once.
	if m := st1.Metrics(); m.Misses != 5 || m.Hits != 0 || m.Writes != 5 {
		t.Fatalf("cold store metrics %+v, want 5 misses and 5 writes", m)
	}

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm := New(4)
	warm.SetStore(st2)
	warmOut := warm.RunAll(jobs)
	ws := warm.Stats()
	if ws.Runs != 0 || ws.EmuInsts != 0 {
		t.Errorf("warm run computed something: %+v", ws)
	}
	// The 3 results answer from disk, so no checkpoint is looked up.
	if m := st2.Metrics(); m.Hits != 3 || m.Misses != 0 {
		t.Errorf("warm run not 100%% store hits: %+v", m)
	}
	if ws.Hits != 1 { // the duplicate job still lands in the memory tier
		t.Errorf("memory tier lost the duplicate: %+v", ws)
	}

	// Identity of the whole results, against both the cold run and a
	// storeless reference engine.
	ref := New(4).RunAll(jobs)
	for i := range jobs {
		if coldOut[i].Err != nil || warmOut[i].Err != nil || ref[i].Err != nil {
			t.Fatalf("job %d errored: %v / %v / %v", i, coldOut[i].Err, warmOut[i].Err, ref[i].Err)
		}
		sameResult(t, "warm vs cold", warmOut[i].Result, coldOut[i].Result)
		sameResult(t, "warm vs storeless", warmOut[i].Result, ref[i].Result)
	}
}

// TestStoreCheckpointTier pins that a warm store eliminates prefix
// emulation: the second engine restores every checkpoint from disk.
func TestStoreCheckpointTier(t *testing.T) {
	dir := t.TempDir()
	job := Solo(sim.Default(sim.PFNone), "lbm", storeOpts())

	st1, _ := store.Open(dir)
	cold := New(1)
	cold.SetStore(st1)
	if _, err := cold.Run(job); err != nil {
		t.Fatal(err)
	}
	if cs := cold.Stats(); cs.CkptMisses != 1 || cs.EmuInsts == 0 {
		t.Fatalf("cold run did not emulate a checkpoint: %+v", cs)
	}

	st2, _ := store.Open(dir)
	warmEng := New(1)
	warmEng.SetStore(st2)
	// Force a result-tier miss with a config the cold engine never ran, so
	// the simulation must execute — but its checkpoint must come from disk.
	job2 := Solo(sim.Default(sim.PFStride), "lbm", storeOpts())
	if _, err := warmEng.Run(job2); err != nil {
		t.Fatal(err)
	}
	ws := warmEng.Stats()
	if ws.Runs != 1 {
		t.Fatalf("expected a simulation: %+v", ws)
	}
	if ws.CkptMisses != 0 || ws.EmuInsts != 0 {
		t.Errorf("checkpoint not restored from store: %+v", ws)
	}
	// One result miss, then one checkpoint hit.
	if m := st2.Metrics(); m.Hits != 1 || m.Misses != 1 {
		t.Errorf("store metrics %+v, want 1 checkpoint hit and 1 result miss", m)
	}
}

// TestStoreWorkerCountInvariant shares one store directory between a
// sequential and a wide engine: both must see the same hits and produce the
// same bytes — the disk tier must be as scheduling-independent as the
// memory tier.
func TestStoreWorkerCountInvariant(t *testing.T) {
	dir := t.TempDir()
	jobs := storeJobs()

	st1, _ := store.Open(dir)
	e1 := New(1)
	e1.SetStore(st1)
	out1 := e1.RunAll(jobs)

	st8, _ := store.Open(dir)
	e8 := New(8)
	e8.SetStore(st8)
	out8 := e8.RunAll(jobs)

	if s, m := e8.Stats(), st8.Metrics(); s.Runs != 0 || m.Misses != 0 {
		t.Errorf("-j 8 over a warm shared store recomputed: %+v, store %+v", s, m)
	}
	for i := range jobs {
		sameResult(t, "j1 vs j8", out1[i].Result, out8[i].Result)
	}
}
