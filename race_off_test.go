//go:build !race

package hauberk_test

const raceEnabled = false
