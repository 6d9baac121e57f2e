package store

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/sim"
)

// FuzzEntry writes arbitrary bytes as the on-disk entry for a blob, a run
// result and a checkpoint, then reads each back. Every read must be a miss
// or a valid value — never a panic — and every miss on a present file must
// be counted in Metrics().CorruptMisses.
func FuzzEntry(f *testing.F) {
	const (
		fp      = "fuzz|fingerprint"
		name    = "gamess"
		ffInsts = 1_000
	)
	s, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	blobKey := KeyOf("blob", "fuzz")
	ckptKey, err := CheckpointKey(name, ffInsts)
	if err != nil {
		f.Fatal(err)
	}

	// Seeds: one intact entry of each kind, as Put writes them.
	cp, err := ckpt.ByName(name, ffInsts)
	if err != nil {
		f.Fatal(err)
	}
	if err := s.Put("blob", blobKey, []byte("payload")); err != nil {
		f.Fatal(err)
	}
	if err := s.PutResult(fp, sim.Result{IPC: []float64{1.5}, Cycles: 42}); err != nil {
		f.Fatal(err)
	}
	if err := s.PutCheckpoint(ckptKey, cp); err != nil {
		f.Fatal(err)
	}
	for _, p := range []string{s.path("blob", blobKey), s.path(KindRun, RunKey(fp)), s.path(KindCkpt, ckptKey)} {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		// read writes data as the entry at path, runs get, and checks that
		// a miss was counted as corrupt.
		read := func(path string, get func() bool) {
			t.Helper()
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			before := s.Metrics().CorruptMisses
			if !get() && s.Metrics().CorruptMisses != before+1 {
				t.Fatalf("%s: miss on a present entry not counted as corrupt", filepath.Base(path))
			}
		}
		read(s.path("blob", blobKey), func() bool {
			_, ok := s.Get("blob", blobKey)
			return ok
		})
		read(s.path(KindRun, RunKey(fp)), func() bool {
			_, ok := s.GetResult(fp)
			return ok
		})
		read(s.path(KindCkpt, ckptKey), func() bool {
			back, ok := s.GetCheckpoint(ckptKey, name, ffInsts)
			if ok && (back.Workload != name || back.FFInsts != ffInsts || back.Image() == nil) {
				t.Fatalf("checkpoint hit with identity %q/%d", back.Workload, back.FFInsts)
			}
			return ok
		})
	})
}
