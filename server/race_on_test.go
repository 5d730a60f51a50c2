//go:build race

package server

// raceEnabled lets allocation-count tests skip under the race detector,
// where sync.Pool deliberately drops a share of what is put back.
const raceEnabled = true
