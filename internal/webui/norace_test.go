//go:build !race

package webui

const raceEnabled = false
