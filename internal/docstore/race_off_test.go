//go:build !race

package docstore

const raceEnabled = false
