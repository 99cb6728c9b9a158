//go:build race

package gpu

// raceEnabled reports that the race detector is on. Under it sync.Pool
// drops a quarter of its Puts at random, so a launch sometimes allocates
// a register file its twin did not, and allocation counts of pooled paths
// are not reproducible.
const raceEnabled = true
