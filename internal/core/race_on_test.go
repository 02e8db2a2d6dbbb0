//go:build race

package core

// raceEnabled reports whether this binary was built with the race
// detector. Race instrumentation allocates, and sync.Pool drops items
// at random under it, so allocation bounds must not run here; the
// non-instrumented runs still enforce them.
const raceEnabled = true
