//go:build !race

package tfim

const raceEnabled = false
