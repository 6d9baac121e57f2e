// Package prefetch defines the prefetcher interface the simulated cores
// drive, a bounded prefetch queue shared by all implementations, and the two
// classic light-weight prefetchers the paper compares against: Next-N lines
// (Smith, 1978) and the stride/reference-prediction-table prefetcher
// (Chen & Baer, 1995), configured at degree 8 as in §V-A.
package prefetch

import (
	"repro/internal/isa"
	"repro/internal/obs"
)

// DecodeInfo describes a control instruction leaving the decode stage; this
// is the feed into B-Fetch's Decoded Branch Register. The front end annotates
// it with its prediction metadata so a lookahead engine can pick up control
// flow exactly where fetch left it.
type DecodeInfo struct {
	PC        uint64 // byte address of the control instruction
	Op        isa.Op
	Target    uint64 // static target (direct branches/jumps), else 0
	PredTaken bool   // fetch-time predicted direction
	PredNext  uint64 // fetch-time predicted next PC
	GHR       uint64 // global history the fetch prediction was made with
}

// CommitInfo describes one instruction retiring in program order. Regs
// points at the committed architectural register file after the
// instruction's effects; it is owned by the core and only valid during the
// call.
type CommitInfo struct {
	PC       uint64
	Inst     isa.Inst
	EA       uint64 // memory ops: effective address
	Taken    bool   // control ops: resolved direction
	Next     uint64 // byte address of the next retired instruction
	TargetPC uint64 // direct control ops: static taken-target byte address
	Regs     *[isa.NumRegs]int64
}

// AccessInfo describes a demand access issued to the L1D.
type AccessInfo struct {
	PC    uint64
	Addr  uint64
	Write bool
	Hit   bool
}

// Request is one prefetch the engine wants issued to the L1D. LoadPC
// attributes the request to the load it anticipates, for per-load filtering
// and feedback.
type Request struct {
	Addr   uint64
	LoadPC uint64
}

// Prefetcher is the contract between a core and its prefetch engine. A
// miss-driven prefetcher typically only uses OnAccess; B-Fetch uses the
// decode and commit streams and a per-cycle AppendTick for its lookahead
// pipeline.
type Prefetcher interface {
	Name() string

	// OnDecode observes decoded control instructions.
	OnDecode(DecodeInfo)
	// OnCommit observes the in-order retirement stream.
	OnCommit(CommitInfo)
	// OnAccess observes demand L1D accesses.
	OnAccess(AccessInfo)

	// PrefetchUseful and PrefetchUseless deliver cache feedback about
	// blocks this prefetcher filled.
	PrefetchUseful(loadPC, blockAddr uint64)
	PrefetchUseless(loadPC, blockAddr uint64)

	// AppendTick advances one cycle, appends the requests to issue this
	// cycle to dst, and returns the extended slice. The caller owns dst and
	// reuses it across cycles, so implementations must not retain it; the
	// append-style contract keeps the per-cycle path allocation-free.
	//
	// AppendTick(now) may run ahead of the simulation clock: while its
	// core's pipeline is frozen (no hook can fire), the core ticks the
	// engine for the coming cycles at once and issues each cycle's requests
	// at that cycle. So the result must depend only on the engine's own
	// state, the inputs its hooks delivered, and now — never on a clock or
	// structure read from elsewhere.
	AppendTick(dst []Request, now uint64) []Request

	// Idle reports whether the engine is quiescent: AppendTick would do no
	// work and emit no requests this cycle or any future cycle until one of
	// the On* hooks delivers new input. The core uses it to stop ticking the
	// engine, so a correct implementation must return false whenever any
	// internal pipeline stage, sampling latch, or queue holds work. When in
	// doubt return false — that only costs the skipped ticks.
	Idle() bool

	// ResetStats zeroes measurement counters (after warmup) without
	// touching learned state.
	ResetStats()

	// StorageBits reports the hardware state the prefetcher would occupy.
	StorageBits() int
}

// Base provides no-op hook implementations for embedding. Its Idle reports
// false — the conservative answer that keeps cycle skipping correct for
// custom engines that buffer work; implementations with visible quiescence
// should override it.
type Base struct{}

//bfetch:hotpath
func (Base) OnDecode(DecodeInfo) {}

//bfetch:hotpath
func (Base) OnCommit(CommitInfo) {}

//bfetch:hotpath
func (Base) OnAccess(AccessInfo) {}

func (Base) PrefetchUseful(uint64, uint64)  {}
func (Base) PrefetchUseless(uint64, uint64) {}

//bfetch:hotpath
func (Base) AppendTick(dst []Request, _ uint64) []Request { return dst }

//bfetch:hotpath
func (Base) Idle() bool       { return false }
func (Base) ResetStats()      {}
func (Base) StorageBits() int { return 0 }

// None is the null prefetcher (the paper's baseline). It is always idle.
type None struct{ Base }

func (None) Name() string { return "none" }

//bfetch:hotpath
func (None) Idle() bool { return true }

// Queue is the bounded prefetch request queue every engine drains through.
// It deduplicates by block address against its own contents and issues a
// fixed number of requests per cycle. Table I sizes B-Fetch's queue at 100
// entries.
//
// Both stores are sized once, at construction: buf holds up to capacity
// requests in arrival order, and set is an open-addressed hash set of the
// pending blocks (keys block+1, so 0 marks an empty slot) with at least
// twice capacity slots, probed linearly and kept tombstone-free by
// backward-shift deletion. Neither grows on the per-cycle path.
type Queue struct {
	buf      []Request //bfetch:noreset pending requests survive a stats reset
	capacity int       //bfetch:noreset configuration
	perCycle int       //bfetch:noreset configuration
	set      []uint64  //bfetch:noreset pending blocks, which survive with buf
	shift    uint      //bfetch:noreset configuration: 64 - log2(len(set))

	Enqueued    uint64
	DroppedFull uint64
	DroppedDup  uint64
}

// NewQueue returns a queue with the given capacity and per-cycle issue
// limit.
func NewQueue(capacity, perCycle int) *Queue {
	bits := 1
	for 1<<bits < 2*capacity {
		bits++
	}
	return &Queue{
		buf:      make([]Request, 0, capacity),
		capacity: capacity,
		perCycle: perCycle,
		set:      make([]uint64, 1<<bits),
		shift:    uint(64 - bits),
	}
}

// home is key's preferred slot in set (Fibonacci hashing: block addresses
// are strided, so the multiply spreads them over the top bits).
//
//bfetch:hotpath
func (q *Queue) home(key uint64) int { return int(key * 0x9E3779B97F4A7C15 >> q.shift) }

// find returns key's slot in set, or the empty slot that ends its probe
// sequence when key is absent.
//
//bfetch:hotpath
func (q *Queue) find(key uint64) int {
	mask := len(q.set) - 1
	i := q.home(key)
	for q.set[i] != 0 && q.set[i] != key {
		i = (i + 1) & mask
	}
	return i
}

// remove deletes key, which must be present, and shifts the rest of its
// probe cluster back so every remaining key stays reachable from its home
// without tombstones.
//
//bfetch:hotpath
func (q *Queue) remove(key uint64) {
	mask := len(q.set) - 1
	i := q.find(key)
	for j := (i + 1) & mask; q.set[j] != 0; j = (j + 1) & mask {
		// The key at j may fill the hole at i only if i lies on its probe
		// path, i.e. no further from j than its home slot is.
		if (j-q.home(q.set[j]))&mask >= (j-i)&mask {
			q.set[i] = q.set[j]
			i = j
		}
	}
	q.set[i] = 0
}

// Push enqueues a request, dropping it if the queue is full or a request for
// the same block is already pending.
//
//bfetch:hotpath
func (q *Queue) Push(r Request) {
	key := r.Addr>>6 + 1
	i := q.find(key)
	if q.set[i] == key {
		q.DroppedDup++
		return
	}
	if len(q.buf) >= q.capacity {
		q.DroppedFull++
		return
	}
	q.buf = append(q.buf, r)
	q.set[i] = key
	q.Enqueued++
}

// AppendPop removes up to the per-cycle issue limit, appending the popped
// requests to dst and returning the extended slice. It never allocates once
// dst has capacity for the per-cycle limit.
//
//bfetch:hotpath
func (q *Queue) AppendPop(dst []Request) []Request {
	n := q.perCycle
	if n > len(q.buf) {
		n = len(q.buf)
	}
	for _, r := range q.buf[:n] {
		q.remove(r.Addr>>6 + 1)
		dst = append(dst, r)
	}
	q.buf = q.buf[:copy(q.buf, q.buf[n:])]
	return dst
}

// PopCycle removes and returns up to the per-cycle issue limit. Allocating
// convenience over AppendPop (tests and diagnostics); hot paths use
// AppendPop with a reused buffer.
func (q *Queue) PopCycle() []Request { return q.AppendPop(nil) }

// ResetStats zeroes the queue's traffic counters without touching pending
// requests.
func (q *Queue) ResetStats() { q.Enqueued, q.DroppedFull, q.DroppedDup = 0, 0, 0 }

// RegisterObs exports the queue's traffic counters into the metrics
// registry under prefix; every engine's RegisterObs delegates here, so the
// queue counters carry the same names for all of them.
func (q *Queue) RegisterObs(reg *obs.Registry, prefix string) {
	reg.Func(prefix+"q_enqueued", func() uint64 { return q.Enqueued })
	reg.Func(prefix+"q_dropped_full", func() uint64 { return q.DroppedFull })
	reg.Func(prefix+"q_dropped_dup", func() uint64 { return q.DroppedDup })
}

// Len returns the number of pending requests.
func (q *Queue) Len() int { return len(q.buf) }

// StorageBits sizes the queue as hardware: one block-granular physical
// address (42 bits at 48-bit physical) per entry, which is how Table I's
// "Prefetch Queue: 100 entries, 0.51 KB" is reached.
func (q *Queue) StorageBits() int { return q.capacity * 42 }
