//go:build race

package textsim

// raceEnabled reports that the race detector is active: sync.Pool then
// drops a share of Puts on purpose, so pooled code allocates.
const raceEnabled = true
