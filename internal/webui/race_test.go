//go:build race

package webui

// raceEnabled reports a race-detector build. Under it sync.Pool drops a
// random quarter of what it is given, so a pooled page plan or writer
// is rebuilt at random and allocation counts run higher.
const raceEnabled = true
