//go:build !race

package scalesim_test

// raceEnabled reports a -race build, where allocation counts differ.
const raceEnabled = false
