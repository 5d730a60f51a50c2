package workload

import (
	"testing"
	"time"

	"github.com/optik-go/optik/store"
)

// TestRunOrderedInProcess drives the mixed point/scan workload against
// the range-partitioned store directly and checks the accounting
// contract: conservation of elements, a live hit rate, scans that
// actually return entries, and latency summaries per kind.
func TestRunOrderedInProcess(t *testing.T) {
	cfg := OrderedConfig{
		Threads:       4,
		Duration:      200 * time.Millisecond,
		InitialSize:   4096,
		SetPct:        20,
		DelPct:        10,
		ScanPct:       15,
		ScanWidth:     32,
		SampleLatency: true,
	}
	res := RunOrdered(cfg, func() *store.Ordered[uint64] {
		return store.NewOrdered(store.WithShards(4), store.WithKeyMax(uint64(2*cfg.InitialSize)))
	})
	if res.Ops == 0 || res.Gets == 0 || res.Sets == 0 || res.Dels == 0 || res.Scans == 0 {
		t.Fatalf("thin run: %+v", res)
	}
	if res.PrefillLen != cfg.InitialSize {
		t.Fatalf("prefill = %d, want %d", res.PrefillLen, cfg.InitialSize)
	}
	if want := int64(res.PrefillLen) + res.Net; int64(res.FinalLen) != want {
		t.Fatalf("conservation: FinalLen = %d, want prefill %d + net %d = %d",
			res.FinalLen, res.PrefillLen, res.Net, want)
	}
	if res.HitRate <= 0 || res.HitRate > 1 {
		t.Fatalf("hit rate = %v", res.HitRate)
	}
	if res.Scanned == 0 {
		t.Fatal("scans returned zero entries against a dense prefill")
	}
	if res.Latency.P50 <= 0 || res.ScanLatency.P50 <= 0 {
		t.Fatalf("latency summaries missing: %v / %v", res.Latency.P50, res.ScanLatency.P50)
	}
	// Deletes ran for 200ms against a shared-pool store: towers were
	// retired, and the accounting was captured before any caller quiesce.
	if res.TowersRetired == 0 {
		t.Fatal("no towers retired despite a delete mix")
	}
}
