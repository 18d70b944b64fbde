//go:build race

package main

// raceEnabled reports a -race build. Under the race detector sync.Pool
// drops a share of what is put into it on purpose, so the pooled read path
// allocates and the zero-allocation check would fail for no fault of the
// code under test.
const raceEnabled = true
