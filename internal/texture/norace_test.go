//go:build !race

package texture

const raceEnabled = false
