package obs

// Deterministic interval time series: cumulative registry-scalar rows
// sampled at fixed cycle boundaries into a bounded ring with
// merge-downsampling.
//
// Determinism contract. A row's content is a pure function of the
// simulated-cycle boundary it samples (registry scalars are simulation
// state), and the ring's shape (row count, spacing) is a pure function of
// how many boundaries have been sampled. Neither depends on wall time,
// -j worker count, or which simulation loop drives the system — so the emitted
// TimeSeriesData is bit-identical across -j values and naive-vs-event
// loops, provided the driver samples every boundary exactly once (the sim
// loops' contract, tested in internal/sim).
//
// Downsampling. When the ring fills (maxRows rows, maxRows even), every
// second row is kept — the surviving rows sit at boundaries of twice the
// spacing — and the interval doubles. A bounded ring therefore covers an
// unbounded run at progressively coarser resolution, the standard
// merge-downsampling scheme.

// TimeSeriesData is the versioned report section (schema bfetch-obs-ts/v1).
// Rows hold cumulative scalar values, one column per name, sampled at cycles
// base_cycle + (k+1)*interval_cycles for row k; interval deltas are
// row-to-row differences.
type TimeSeriesData struct {
	Schema   string     `json:"schema"` // SchemaTS
	Base     uint64     `json:"base_cycle"`
	Interval uint64     `json:"interval_cycles"`
	Names    []string   `json:"names"`
	Rows     [][]uint64 `json:"rows"`
}

// TimeSeries samples a sealed Registry into a reused ring. One TimeSeries
// belongs to one simulated System (same single-owner discipline as the
// Registry); the per-boundary Sample path is allocation-free.
type TimeSeries struct {
	reg       *Registry //bfetch:noreset wiring
	names     []string  //bfetch:noreset row schema, fixed at construction
	width     int       //bfetch:noreset row schema, fixed at construction
	interval0 uint64    //bfetch:noreset configuration
	maxRows   int       //bfetch:noreset configuration

	buf      []uint64 //bfetch:noreset ring storage (maxRows rows), reused across windows; n=0 empties it logically
	n        int      // rows recorded in the current window
	interval uint64   // current row spacing (doubles on downsampling)
	base     uint64   // window-start cycle
	nextAt   uint64   // next boundary to sample
}

// NewTimeSeries builds a sampler over reg with the given boundary interval,
// sealing the registry's scalar set. maxRows bounds the ring (<= 0 picks 64;
// the floor is 4) and is rounded up to even so downsampling halves cleanly.
func NewTimeSeries(reg *Registry, interval uint64, maxRows int) *TimeSeries {
	if interval == 0 {
		panic("obs: time series interval must be positive")
	}
	if maxRows <= 0 {
		maxRows = 64
	}
	if maxRows < 4 {
		maxRows = 4
	}
	maxRows += maxRows & 1
	names := reg.SealScalars()
	s := &TimeSeries{
		reg:       reg,
		names:     names,
		width:     len(names),
		interval0: interval,
		maxRows:   maxRows,
		buf:       make([]uint64, maxRows*len(names)),
	}
	s.Restart(0)
	return s
}

// Restart begins a new measurement window at cycle now: recorded rows are
// dropped, the interval resets, and the first boundary is now + interval.
// sim.System.ResetStats calls it at the window boundary.
func (s *TimeSeries) Restart(now uint64) {
	s.n = 0
	s.interval = s.interval0
	s.base = now
	s.nextAt = now + s.interval
}

// NextAt returns the next unsampled boundary; a nil sampler never matches
// (so loop drivers can poll without a guard).
func (s *TimeSeries) NextAt() uint64 {
	if s == nil {
		return ^uint64(0)
	}
	return s.nextAt
}

// Sample records the row for the boundary NextAt() and advances it. The
// caller invokes it exactly once per boundary, when the simulated clock
// reaches that boundary.
func (s *TimeSeries) Sample() {
	row := s.buf[s.n*s.width : (s.n+1)*s.width]
	s.reg.ReadScalarsInto(row)
	s.n++
	s.nextAt += s.interval
	if s.n == s.maxRows {
		// Ring full: keep every second row (odd indices, which sit at
		// boundaries of 2×interval) and double the spacing. nextAt advances
		// by one *old* interval to land on the next doubled boundary.
		for i := 0; 2*i+1 < s.n; i++ {
			copy(s.buf[i*s.width:(i+1)*s.width], s.buf[(2*i+1)*s.width:(2*i+2)*s.width])
		}
		s.n /= 2
		s.nextAt += s.interval
		s.interval *= 2
	}
}

// Rows returns the number of rows recorded in the current window.
func (s *TimeSeries) Rows() int {
	if s == nil {
		return 0
	}
	return s.n
}

// Data snapshots the current window as a report section, or nil if no
// boundary has been sampled yet (or the sampler is absent). Cold path.
func (s *TimeSeries) Data() *TimeSeriesData {
	if s == nil || s.n == 0 {
		return nil
	}
	rows := make([][]uint64, s.n)
	flat := make([]uint64, s.n*s.width)
	copy(flat, s.buf[:s.n*s.width])
	for i := range rows {
		rows[i] = flat[i*s.width : (i+1)*s.width]
	}
	return &TimeSeriesData{
		Schema:   SchemaTS,
		Base:     s.base,
		Interval: s.interval,
		Names:    s.names,
		Rows:     rows,
	}
}
