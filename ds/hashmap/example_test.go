package hashmap_test

import (
	"fmt"

	"github.com/optik-go/optik/ds/hashmap"
)

// ExampleResizable_upsert shows in-place value replacement — the serving
// store's Set semantics, in contrast to the paper tables' strict Insert.
func ExampleResizable_upsert() {
	m := hashmap.NewResizable(64)

	if _, replaced := m.Upsert(42, 1); !replaced {
		fmt.Println("fresh insert")
	}
	if old, replaced := m.Upsert(42, 2); replaced {
		fmt.Println("replaced", old)
	}
	if v, ok := m.Search(42); ok {
		fmt.Println("now holds", v)
	}
	fmt.Println("len", m.Len())
	// Output:
	// fresh insert
	// replaced 1
	// now holds 2
	// len 1
}
