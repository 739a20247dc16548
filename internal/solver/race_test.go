//go:build race

package solver

func init() { raceEnabled = true }
