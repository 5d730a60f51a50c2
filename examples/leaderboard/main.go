// leaderboard: an ordered score index on the OPTIK skip list (§5.3) under
// a skewed update stream — the hottest players' scores change most often,
// which is precisely the zipfian contention pattern where the paper's
// optik2 skip list shines.
//
// Scores are encoded into the key with the score bits inverted (so the
// skip list's ascending key order ranks best-first) and the player id in
// the low bits breaking ties; a score update deletes the old entry and
// inserts the new one. The same encoding works over the wire: with
// -addr the board keeps its entries in an ordered optik-server
// (optik-server -ordered), moving entries with DEL+SET and reading the
// top of the table with one SCAN page.
//
// Run with:
//
//	go run ./examples/leaderboard [-players 10000] [-updaters 8] [-duration 2s]
//	go run ./examples/leaderboard -addr 127.0.0.1:7979   # needs -ordered server
package main

import (
	"flag"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"github.com/optik-go/optik/ds/skiplist"
	"github.com/optik-go/optik/server"
)

const (
	scoreBits  = 32
	playerMask = (1 << scoreBits) - 1
)

// entryKey packs (score, player) with the score inverted, so ascending
// key order is descending score order: the index's smallest key — the
// first key any ascending scan returns — is the current leader. Ties
// rank by player id. Scores start at 1, so the inverted score never
// reaches ^uint32(0) and the key stays inside the structures' legal
// key space at both ends.
func entryKey(score uint32, player uint32) uint64 {
	return uint64(^score)<<scoreBits | uint64(player)
}

// keyScore recovers the score from an entry key.
func keyScore(key uint64) uint32 { return ^uint32(key >> scoreBits) }

// keyPlayer recovers the player id from an entry key.
func keyPlayer(key uint64) uint32 { return uint32(key & playerMask) }

// scoreIndex is the ordered index the board ranks through: in-process
// (the OPTIK skip list) or remote (an ordered optik-server over TCP).
type scoreIndex interface {
	insert(key uint64, player uint64)
	remove(key uint64)
	contains(key uint64) bool
	// top returns the first n entry keys in ascending key order — i.e.
	// the current top-n ranking, best first.
	top(n int) []uint64
	size() int
	close()
}

// localIndex ranks through the in-process optik2 skip list.
type localIndex struct {
	list *skiplist.Optik[uint64]
}

func (ix *localIndex) insert(key, player uint64) { ix.list.Insert(key, player) }
func (ix *localIndex) remove(key uint64)         { ix.list.Delete(key) }
func (ix *localIndex) contains(key uint64) bool {
	_, ok := ix.list.Search(key)
	return ok
}
func (ix *localIndex) top(n int) []uint64 {
	keys := make([]uint64, n)
	vals := make([]uint64, n)
	got := ix.list.ScanRange(1, ^uint64(0)-1, keys, vals)
	return keys[:got]
}
func (ix *localIndex) size() int { return ix.list.Len() }
func (ix *localIndex) close()    {}

// netIndex ranks through an ordered optik-server, one pooled connection
// per concurrent caller.
type netIndex struct {
	addr string
	mu   sync.Mutex
	idle []*server.Client
	all  []*server.Client
}

func (ix *netIndex) borrow() *server.Client {
	ix.mu.Lock()
	if n := len(ix.idle); n > 0 {
		c := ix.idle[n-1]
		ix.idle = ix.idle[:n-1]
		ix.mu.Unlock()
		return c
	}
	ix.mu.Unlock()
	c, err := server.Dial(ix.addr)
	if err != nil {
		panic("leaderboard: " + err.Error())
	}
	ix.mu.Lock()
	ix.all = append(ix.all, c)
	ix.mu.Unlock()
	return c
}

func (ix *netIndex) put(c *server.Client) {
	ix.mu.Lock()
	ix.idle = append(ix.idle, c)
	ix.mu.Unlock()
}

func (ix *netIndex) insert(key, player uint64) {
	c := ix.borrow()
	c.Set(key, player)
	ix.put(c)
}

func (ix *netIndex) remove(key uint64) {
	c := ix.borrow()
	c.Del(key)
	ix.put(c)
}

func (ix *netIndex) contains(key uint64) bool {
	c := ix.borrow()
	_, ok := c.Get(key)
	ix.put(c)
	return ok
}

func (ix *netIndex) top(n int) []uint64 {
	c := ix.borrow()
	_, keys, _ := c.Scan(0, "", n)
	ix.put(c)
	return keys
}

func (ix *netIndex) size() int {
	c := ix.borrow()
	n := c.Len()
	ix.put(c)
	return n
}

func (ix *netIndex) close() {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for _, c := range ix.all {
		c.Close()
	}
	ix.all, ix.idle = nil, nil
}

// Leaderboard maintains one ordered index plus a per-player current score.
type Leaderboard struct {
	index  scoreIndex
	scores []atomic.Uint32 // current score per player
	locks  []sync.Mutex    // serializes updates per player
}

// NewLeaderboard creates a board with the given number of players, all at
// score 1.
func NewLeaderboard(players int, index scoreIndex) *Leaderboard {
	lb := &Leaderboard{
		index:  index,
		scores: make([]atomic.Uint32, players),
		locks:  make([]sync.Mutex, players),
	}
	for p := range lb.scores {
		lb.scores[p].Store(1)
		lb.index.insert(entryKey(1, uint32(p)), uint64(p))
	}
	return lb
}

// AddPoints adds delta to a player's score, moving its index entry.
func (lb *Leaderboard) AddPoints(player uint32, delta uint32) {
	lb.locks[player].Lock()
	defer lb.locks[player].Unlock()
	old := lb.scores[player].Load()
	next := old + delta
	lb.scores[player].Store(next)
	lb.index.remove(entryKey(old, player))
	lb.index.insert(entryKey(next, player), uint64(player))
}

// Contains reports whether a player currently has the given score entry.
func (lb *Leaderboard) Contains(player uint32) bool {
	return lb.index.contains(entryKey(lb.scores[player].Load(), player))
}

func main() {
	players := flag.Int("players", 10000, "number of players")
	updaters := flag.Int("updaters", 8, "updater goroutines")
	duration := flag.Duration("duration", 2*time.Second, "run duration")
	addr := flag.String("addr", "", "ordered optik-server address (empty = in-process skip list)")
	flag.Parse()

	var index scoreIndex
	mode := "in-process optik2"
	if *addr != "" {
		index = &netIndex{addr: *addr}
		mode = "ordered optik-server at " + *addr
	} else {
		index = &localIndex{list: skiplist.NewOptik2()}
	}
	defer index.close()

	lb := NewLeaderboard(*players, index)
	var (
		updates atomic.Uint64
		lookups atomic.Uint64
		stop    atomic.Bool
		wg      sync.WaitGroup
	)
	// Zipf over players: hot players get most of the score updates.
	for u := 0; u < *updaters; u++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			src := rand.NewPCG(seed, seed^0xABCD)
			r := rand.New(src)
			z := rand.NewZipf(r, 1.3, 1, uint64(*players-1))
			for !stop.Load() {
				player := uint32(z.Uint64())
				lb.AddPoints(player, uint32(r.IntN(10)+1))
				updates.Add(1)
				// Interleave a few reads, like a ranking page.
				for i := 0; i < 3; i++ {
					lb.Contains(uint32(r.IntN(*players)))
					lookups.Add(1)
				}
			}
		}(uint64(u + 1))
	}
	time.Sleep(*duration)
	stop.Store(true)
	wg.Wait()

	fmt.Printf("leaderboard: %d players, %d updaters, %v, %s\n", *players, *updaters, *duration, mode)
	fmt.Printf("  score updates: %8.2f Kops/s\n", float64(updates.Load())/duration.Seconds()/1e3)
	fmt.Printf("  rank lookups : %8.2f Kops/s\n", float64(lookups.Load())/duration.Seconds()/1e3)
	fmt.Printf("  index size   : %d (want %d)\n", index.size(), *players)

	// The first scan page IS the ranking: ascending keys, best first.
	fmt.Printf("  top 5        :")
	for _, key := range lb.index.top(5) {
		fmt.Printf(" p%d=%d", keyPlayer(key), keyScore(key))
	}
	fmt.Println()

	// Every player's current score entry must be present.
	missing := 0
	for p := 0; p < *players; p++ {
		if !lb.Contains(uint32(p)) {
			missing++
		}
	}
	fmt.Printf("  consistency  : %d missing entries (want 0)\n", missing)
}
