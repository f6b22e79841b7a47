//go:build !race

package iofault

const raceEnabled = false
