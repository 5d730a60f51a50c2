package workload

import (
	"testing"
	"time"

	"github.com/optik-go/optik/store"
)

// TestRunServerConservation runs the server workload — batched and
// single-key — and checks exact conservation and the result plumbing.
func TestRunServerConservation(t *testing.T) {
	cfg := ServerConfig{
		Threads:       4,
		Duration:      200 * time.Millisecond,
		InitialSize:   4096,
		SetPct:        20,
		DelPct:        10,
		BatchPct:      30,
		BatchSize:     8,
		SampleLatency: true,
	}
	res := RunServer(cfg, func() *store.Store[uint64] {
		return store.New(store.WithShardBuckets(64))
	})
	if res.Ops == 0 || res.Gets == 0 || res.Sets == 0 || res.Dels == 0 {
		t.Fatalf("thin run: %+v", res)
	}
	if res.PrefillLen != cfg.InitialSize {
		t.Fatalf("prefill = %d, want exactly %d", res.PrefillLen, cfg.InitialSize)
	}
	if want := int64(res.PrefillLen) + res.Net; int64(res.FinalLen) != want {
		t.Fatalf("conservation: FinalLen = %d, want prefill %d + net %d = %d",
			res.FinalLen, res.PrefillLen, res.Net, want)
	}
	if res.HitRate <= 0 || res.HitRate > 1 {
		t.Fatalf("hit rate = %v", res.HitRate)
	}
	if res.Latency.P50 <= 0 || res.GetLatency.P50 <= 0 || res.BatchLatency.P50 <= 0 {
		t.Fatalf("latency summaries missing: all=%v get=%v batch=%v",
			res.Latency.P50, res.GetLatency.P50, res.BatchLatency.P50)
	}
	if res.FinalBuckets == 0 {
		t.Fatal("FinalBuckets not plumbed")
	}
}

// TestRunServerBatchOnly pins the pure-batch path (BatchPct 100) — every
// op flows through MGet/MSet/MDel.
func TestRunServerBatchOnly(t *testing.T) {
	res := RunServer(ServerConfig{
		Threads: 2, Duration: 100 * time.Millisecond, InitialSize: 1024,
		SetPct: 20, DelPct: 10, BatchPct: 100, BatchSize: 4,
	}, func() *store.Store[uint64] {
		return store.New(store.WithShardBuckets(64), store.WithoutMaintenance())
	})
	if res.Ops == 0 {
		t.Fatal("no ops")
	}
	if res.PrefillLen != 1024 || int64(res.FinalLen) != 1024+res.Net {
		t.Fatalf("conservation: prefill = %d, FinalLen = %d, net = %d",
			res.PrefillLen, res.FinalLen, res.Net)
	}
	if res.Ops%4 != 0 {
		t.Fatalf("Ops = %d not a multiple of the batch size", res.Ops)
	}
}
