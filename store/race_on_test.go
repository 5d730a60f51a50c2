//go:build race

package store

// raceEnabled lets allocation-count tests skip under the race detector.
const raceEnabled = true
