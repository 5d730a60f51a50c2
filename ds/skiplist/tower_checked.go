//go:build race || skiplistdebug

package skiplist

// checkedBuild turns on the tower bounds check (checkLevel) in every at:
// the suites run it under `go test -race` or the skiplistdebug tag.
const checkedBuild = true
