//go:build race

package noise

// raceEnabled reports a -race build, where the statistical tests take a
// quarter of their reference draws: the race detector slows colouring
// about tenfold, and the law is checked without it.
const raceEnabled = true
