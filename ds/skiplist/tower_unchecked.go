//go:build !race && !skiplistdebug

package skiplist

// checkedBuild is off outside the checked build (see tower_checked.go): at
// neither decodes the height nor checks the level, and the traversal
// invariant in tower.go is what keeps at(level) inside the node.
const checkedBuild = false
