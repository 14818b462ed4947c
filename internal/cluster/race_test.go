//go:build race

package cluster

// raceEnabled reports a -race build: sync.Pool drops a random share of its
// items there, so allocation counts (fmt's pooled printers among them) are
// not comparable with a budget measured without it.
const raceEnabled = true
