//go:build race

package sim

// raceEnabled: the race detector makes sync.Pool drop a share of what it
// is given, so pooled paths allocate by design under -race.
const raceEnabled = true
