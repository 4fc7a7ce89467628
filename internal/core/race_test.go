//go:build race

package core_test

// raceEnabled reports that this test binary runs under the race
// detector, which drops a random share of sync.Pool puts and changes
// what a run allocates.
const raceEnabled = true
