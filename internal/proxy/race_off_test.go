//go:build !race

package proxy

// raceDetector reports whether the tests were built with -race.
const raceDetector = false
