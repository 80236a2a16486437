//go:build !race

package mrjoin

const raceEnabled = false
