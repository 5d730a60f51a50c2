//go:build race || skiplistdebug

package skiplist

import "fmt"

// checkLevel is the checked build's tower bounds check: every at(level)
// the suites make under `go test -race` (or the skiplistdebug tag) panics
// on a level outside the node's tower instead of reading past it.
func checkLevel(level, height int) {
	if uint(level) >= uint(height) {
		panic(fmt.Sprintf("skiplist: tower access at level %d of a %d-level node", level, height))
	}
}
