//go:build !race

package dlfs

const raceEnabled = false
