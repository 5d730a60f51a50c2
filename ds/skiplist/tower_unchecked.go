//go:build !race && !skiplistdebug

package skiplist

// checkLevel compiles to nothing outside the checked build (see
// tower_checked.go); the traversal invariant in tower.go is what keeps
// at(level) inside the node.
func checkLevel(level, height int) {}
