//go:build !race

package noise

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
