package cpu

import "fmt"

// CheckSched verifies the scheduling state the issue, complete and
// next-event scans trust without re-checking, returning the first violation:
//
//   - a live ROB entry's state and bitmaps agree exactly: sReady ⇔ readyBM;
//     an issued load is in exactly one of inflightBM and pendBM; any other
//     issued entry is in inflightBM; a free slot has no bit set;
//   - pendSettled equals the number of pendBM loads with sqWait == sqGen,
//     and none of them is at the ROB head (chargeGap relies on it);
//   - no prefetch tick NextEvent ran ahead is still held: the Cycle of the
//     cycle NextEvent returned issued it.
//
// It walks the whole ROB, so it is a test oracle: the sim package's loop
// tests run it after every tick. Nothing on the simulation path calls it.
func (c *Core) CheckSched() error {
	if c.pfHeld {
		return fmt.Errorf("cpu: a run-ahead prefetch tick is still held after Cycle")
	}
	settled := 0
	for s := range c.rob {
		e := &c.rob[s]
		off := s - c.headSlot
		if off < 0 {
			off += len(c.rob)
		}
		live := e.seq != 0
		if live != (off < c.count) {
			return fmt.Errorf("cpu: slot %d holds seq %d, but the ROB window is [%d, +%d)",
				s, e.seq, c.headSlot, c.count)
		}
		ready, inflight, pend := bmHas(c.readyBM, s), bmHas(c.inflightBM, s), bmHas(c.pendBM, s)
		var want [3]bool // ready, inflight, pend
		if live {
			switch e.state {
			case sReady:
				want[0] = true
			case sIssued:
				if e.inst.IsLoad() && pend {
					want[2] = true
				} else {
					want[1] = true
				}
			}
		}
		if got := [3]bool{ready, inflight, pend}; got != want {
			return fmt.Errorf("cpu: slot %d (seq %d, %s, state %d): ready/inflight/pend bits %v, want %v",
				s, e.seq, e.inst, e.state, got, want)
		}
		if pend && e.sqWait == c.sqGen {
			if off == 0 {
				return fmt.Errorf("cpu: settled load at the ROB head (slot %d, seq %d)", s, e.seq)
			}
			settled++
		}
	}
	if settled != c.pendSettled {
		return fmt.Errorf("cpu: pendSettled = %d, but %d pending loads have sqWait == sqGen (%d)",
			c.pendSettled, settled, c.sqGen)
	}
	return nil
}
