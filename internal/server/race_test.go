//go:build race

package server

// raceEnabled reports that the race detector is on: sync.Pool then drops a
// quarter of what it is handed, so allocation budgets that rest on pooled
// state do not hold and are skipped.
const raceEnabled = true
