package hashmap

import (
	"testing"
	"time"
)

// BenchmarkBulkLoad loads 1,048,576 keys in order into a table at the
// 1,024-bucket floor, one Upsert at a time, and reports the load's ns/key
// and the trailing Quiesce's time: the migration backlog the load left
// behind. Every update claims its share of the resize it causes, so the
// backlog should stay at a few µs.
func BenchmarkBulkLoad(b *testing.B) {
	const n = 1 << 20
	var load, quiesce time.Duration
	for i := 0; i < b.N; i++ {
		m := NewResizable(1024)
		t0 := time.Now()
		for k := uint64(1); k <= n; k++ {
			m.Upsert(k, k)
		}
		t1 := time.Now()
		m.Quiesce()
		load += t1.Sub(t0)
		quiesce += time.Since(t1)
	}
	b.ReportMetric(float64(load.Nanoseconds())/float64(b.N)/n, "ns/key")
	b.ReportMetric(float64(quiesce.Microseconds())/float64(b.N), "quiesce-us")
	b.ReportMetric(0, "ns/op")
}
