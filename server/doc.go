// Package server is the network front for the sharded OPTIK store: it
// exposes a store.Strings over a RESP-flavored (redis/memcached-style)
// TCP protocol — GET/SET/DEL, batched MGET/MSET/MDEL, LEN, STATS,
// QUIESCE, PING, QUIT — with per-connection read/write buffering and
// pipelining: a connection parses and executes requests back to back
// while input is buffered and flushes all their replies in one write, so
// a client that keeps k requests in flight pays the per-request syscall
// and scheduling costs once per batch instead of once per key.
//
// The full wire format — framing, command grammar, reply types, error
// handling and the pipelining contract — is specified in docs/PROTOCOL.md
// at the repository root. The server edge is where the OPTIK pattern's
// optimism pays: every GET that arrives here runs lock-free through the
// store (index read validated by bucket version, value load validated by
// hash), so request concurrency is limited by the wire, not by locks —
// the motivation the paper's introduction gives for optimistic
// concurrency in the first place.
//
// The package also ships a Client: a single-connection, allocation-lean
// client for tests and benchmarks whose multi-key operations are
// pipelines of scalar commands (or, with SetMultibulk, true MGET/MSET/MDEL
// frames). cmd/optik-server wraps Server in a binary; the repository's
// bench/ module drives it over loopback to judge the served system, and
// BenchmarkPipeline measures the wire path per key at fixed depths.
package server
