//go:build !race

package tile_test

const raceEnabled = false
