//go:build race

package deploy

// raceEnabled reports a -race build, under which sync.Pool drops a share
// of the items put back on purpose, so pooled paths allocate.
const raceEnabled = true
