//go:build race

package lg

// raceEnabled reports that the race detector is on. It makes sync.Pool
// drop a share of what is Put, so allocation counts that rely on
// pooled buffers are not exact under it.
const raceEnabled = true
