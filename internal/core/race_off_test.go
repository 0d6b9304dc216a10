//go:build !race

package core

// raceDetector reports whether the tests were built with -race.
const raceDetector = false
