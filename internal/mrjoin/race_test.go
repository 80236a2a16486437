//go:build race

package mrjoin

// raceEnabled: under the race detector sync.Pool drops a quarter of what it
// is given on purpose, so allocation bounds that lean on a pool do not hold.
const raceEnabled = true
