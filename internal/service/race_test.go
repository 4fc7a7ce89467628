//go:build race

package service

// raceEnabled reports that this test binary runs under the race
// detector, which drops a random share of sync.Pool puts and changes
// what a request allocates.
const raceEnabled = true
