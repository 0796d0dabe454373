//go:build race

package engine

// raceEnabled reports a race-detector build, whose sync.Pool drops items at
// random, so allocation counts of pooled paths do not repeat.
const raceEnabled = true
