//go:build race

package loadgen

// raceEnabled reports that the race detector instruments this test binary,
// which makes every loopback round trip several times dearer.
const raceEnabled = true
