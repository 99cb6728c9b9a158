//go:build race

package hauberk_test

// raceEnabled reports that the race detector is on. Under it sync.Pool
// drops a quarter of its Puts at random, so allocation counts of paths
// that pool (device reuse across injections) are not reproducible.
const raceEnabled = true
