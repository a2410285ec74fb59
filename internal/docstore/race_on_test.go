//go:build race

package docstore

const raceEnabled = true
