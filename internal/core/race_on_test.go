//go:build race

package core

// raceEnabled reports whether the test binary is race-instrumented.
const raceEnabled = true
