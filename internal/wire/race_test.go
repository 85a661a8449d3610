//go:build race

package wire

// raceEnabled reports a -race build, whose instrumentation allocates on
// its own and so makes allocation counts meaningless.
const raceEnabled = true
