//go:build !race

package iawj

// raceEnabled reports that the tests run under the race detector.
const raceEnabled = false
