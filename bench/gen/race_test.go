//go:build race

package gen

func init() { raceEnabled = true }
