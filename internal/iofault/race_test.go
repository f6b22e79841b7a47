//go:build race

package iofault

// raceEnabled reports a race-detector build. Under it sync.Pool drops a
// random quarter of what it is given, so a pooled copy buffer is
// reallocated at random and allocation figures run higher.
const raceEnabled = true
