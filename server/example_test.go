package server_test

import (
	"fmt"

	"github.com/optik-go/optik/server"
	"github.com/optik-go/optik/store"
)

// ExampleServer brings the whole stack up in-process: a string store, the
// TCP front on a loopback port, and the pipelining client talking to it.
func ExampleServer() {
	st := store.NewStrings()
	defer st.Close()
	srv := server.New(st)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	defer srv.Close()

	cl, err := server.Dial(addr.String())
	if err != nil {
		panic(err)
	}
	defer cl.Close()

	cl.Set(7, 700)
	if v, ok := cl.Get(7); ok {
		fmt.Println("GET 7 →", v)
	}
	keys := []uint64{7, 8, 9}
	fmt.Println("MSet inserted", cl.MSet(keys[1:], []uint64{800, 900}))
	vals := make([]uint64, 3)
	found := make([]bool, 3)
	cl.MGet(keys, vals, found) // three pipelined GETs, one flush
	fmt.Println("MGet", vals, found)
	fmt.Println("LEN", cl.Len())
	// Output:
	// GET 7 → 700
	// MSet inserted 2
	// MGet [700 800 900] [true true true]
	// LEN 3
}
