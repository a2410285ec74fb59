//go:build race

package node

const raceEnabled = true
