package store_test

import (
	"fmt"

	"github.com/optik-go/optik/store"
)

// ExampleStore shows the uint64 store surface: upsert Set semantics,
// batched multi-key operations, and accounting.
func ExampleStore() {
	st := store.New(store.WithShardBuckets(64))
	defer st.Close()

	if _, replaced := st.Set(1, 100); !replaced {
		fmt.Println("fresh insert")
	}
	old, _ := st.Set(1, 101) // upsert: replaces in place
	fmt.Println("replaced value", old)

	keys := []uint64{1, 2, 3}
	vals := []uint64{0, 200, 300}
	fmt.Println("MSet inserted", st.MSet(keys[1:], vals[1:]))

	got := make([]uint64, 3)
	found := make([]bool, 3)
	st.MGet(keys, got, found)
	fmt.Println("MGet", got, found)

	fmt.Println("deleted", st.MDel(keys), "of", 3, "keys; Len now", st.Len())
	// Output:
	// fresh insert
	// replaced value 100
	// MSet inserted 2
	// MGet [101 200 300] [true true true]
	// deleted 3 of 3 keys; Len now 0
}

// ExampleStrings shows the string-valued store the network server
// serves: the same OPTIK index, each value held by the index itself.
func ExampleStrings() {
	st := store.NewStrings()
	defer st.Close()

	st.Set("user:1", "alice")
	st.Set("user:2", "bob")
	if v, ok := st.Get("user:1"); ok {
		fmt.Println("user:1 =", v)
	}

	vals := make([]string, 3)
	found := make([]bool, 3)
	st.MGet([]string{"user:1", "user:2", "user:3"}, vals, found)
	fmt.Println(vals, found)

	st.Del("user:1")
	fmt.Println("len", st.Len())
	// Output:
	// user:1 = alice
	// [alice bob ] [true true false]
	// len 1
}
