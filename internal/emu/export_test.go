package emu

// SetInterp pins c to the Step interpreter (on) or back to the compiled
// engine (off), so the differential tests can run both engines on the same
// program.
func SetInterp(c *CPU, on bool) { c.interp = on }
