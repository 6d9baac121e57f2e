package main

import "testing"

func TestParseCores(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int // 0: must be rejected
	}{
		{"4", 4},
		{" 16", 16},
		{"4.5", 0},
		{"8x", 0},
		{"0", 0},
		{"-2", 0},
		{"", 0},
	} {
		n, err := parseCores(tc.in)
		switch {
		case tc.want == 0 && err == nil:
			t.Errorf("parseCores(%q) = %d, want an error", tc.in, n)
		case tc.want != 0 && (err != nil || n != tc.want):
			t.Errorf("parseCores(%q) = %d, %v; want %d", tc.in, n, err, tc.want)
		}
	}
}
