package trace

import (
	"bytes"
	"testing"
)

// encode writes events through a Writer and returns the stream.
func encode(t *testing.T, events []Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReader checks that no byte stream panics the decoder, and that every
// stream it accepts re-encodes through Writer to one that decodes to the
// same events. (Bytes need not match: a varint has more than one encoding.)
func FuzzReader(f *testing.F) {
	seed := func(events ...Event) {
		var buf bytes.Buffer
		w, _ := NewWriter(&buf)
		for _, e := range events {
			w.Write(e)
		}
		w.Flush()
		f.Add(buf.Bytes())
	}
	seed(
		Event{Kind: KindLoad, PC: 0x1000, Addr: 0xDEADBEE8},
		Event{Kind: KindStore, PC: 0x1004, Addr: 0x10},
		Event{Kind: KindBranch, PC: 0x1008, Taken: true},
		Event{Kind: KindJump, PC: 0x1010, Taken: true},
	)
	seed(Event{Kind: KindPrefLate, PC: 0x40, Addr: 0x1c0, Cycle: 12345})
	seed()
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		events, err := r.ReadAll()
		if err != nil {
			return
		}
		r2, err := NewReader(bytes.NewReader(encode(t, events)))
		if err != nil {
			t.Fatalf("re-encoded stream rejected: %v", err)
		}
		again, err := r2.ReadAll()
		if err != nil {
			t.Fatalf("re-encoded stream failed to decode: %v", err)
		}
		if len(again) != len(events) {
			t.Fatalf("round trip: %d events, want %d", len(again), len(events))
		}
		for i := range events {
			if again[i] != events[i] {
				t.Fatalf("event %d: %+v, want %+v", i, again[i], events[i])
			}
		}
	})
}
