package workload

import (
	"testing"
	"time"
)

// TestEvictSmoke is the tier-1 sanity pass over the eviction driver: a
// small budgeted run must end under budget with the governance counters
// moving. The real acceptance numbers live in the soak below.
func TestEvictSmoke(t *testing.T) {
	cfg := EvictConfig{
		Threads:  2,
		Duration: 150 * time.Millisecond,
		Keys:     4096,
		ValueLen: 100,
	}
	cfg.Budget = cfg.WorkingSetBytes() / 4
	res := RunEvict(cfg)
	if res.Ops == 0 {
		t.Fatal("no operations completed")
	}
	if res.BytesFinal > cfg.Budget {
		t.Fatalf("BytesFinal %d over budget %d after final quiesce", res.BytesFinal, cfg.Budget)
	}
	if res.Evicted == 0 {
		t.Fatal("working set 4x budget but nothing evicted")
	}
	if res.FinalLen == 0 {
		t.Fatal("store drained to empty — eviction should stop at the budget, not zero")
	}
}

// TestEvictSoakHoldsBudget is the tier-2 eviction soak (nightly; skipped
// under -short): zipfian churn with a working set 4x the byte budget
// must hold bytes_used within 10% of the budget across the whole run,
// and the victim selection must keep the hit rate within 4 points of an
// ungoverned store holding the entire working set (on a 2-vCPU box it
// reads 2.2 points under, 0.978 three runs in three; 3.2 to 3.4 under
// -race, which does an eighth of the operations in the same 1.5 s, so the
// cold start weighs more; a store holding exactly the hot fifth would
// read 1.9 under). TTL traffic rides along so swept expiry and eviction
// share the maintenance passes, as they do in production.
func TestEvictSoakHoldsBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("eviction soak: tier-2 nightly, skipped under -short")
	}
	cfg := EvictConfig{
		Threads:  4,
		Duration: 1500 * time.Millisecond,
		Keys:     16384,
		ValueLen: 200,
		SetPct:   10,
		TTLPct:   20,
		TTLSecs:  1,
	}
	budget := cfg.WorkingSetBytes() / 4

	base := RunEvict(cfg) // Budget 0: the ungoverned baseline.
	gov := cfg
	gov.Budget = budget
	res := RunEvict(gov)

	if base.BytesMax < 2*budget {
		t.Fatalf("baseline never exceeded 2x budget (max %d, budget %d) — the run measures nothing", base.BytesMax, budget)
	}
	if limit := budget + budget/10; res.BytesMax > limit {
		t.Errorf("bytes_used peaked at %d, want <= %d (budget %d + 10%%)", res.BytesMax, limit, budget)
	}
	if res.BytesFinal > budget {
		t.Errorf("BytesFinal %d over budget %d after final quiesce", res.BytesFinal, budget)
	}
	if res.Evicted == 0 {
		t.Error("no evictions under a 4x-budget working set")
	}
	// Expiry is asserted on the baseline: in the governed run the cold
	// TTL'd entries are usually evicted before their deadline (eviction
	// and expiry compete for exactly the same idle tail), while the
	// baseline holds everything until the sweep retires it.
	if base.ExpiredSwept+base.ExpiredLazy+res.ExpiredSwept+res.ExpiredLazy == 0 {
		t.Error("TTL traffic ran but no entries expired in either run")
	}
	if res.HitRate < base.HitRate-0.04 {
		t.Errorf("governed hit rate %.3f more than 4 points under baseline %.3f (evicted %d, refills %d)",
			res.HitRate, base.HitRate, res.Evicted, res.Refills)
	}
	t.Logf("baseline: hit %.3f bytes max %d swept %d lazy %d; governed: hit %.3f bytes max/avg/final %d/%d/%d budget %d evicted %d swept %d lazy %d",
		base.HitRate, base.BytesMax, base.ExpiredSwept, base.ExpiredLazy,
		res.HitRate, res.BytesMax, res.BytesAvg, res.BytesFinal,
		budget, res.Evicted, res.ExpiredSwept, res.ExpiredLazy)
}
