package workload

import (
	"testing"

	"github.com/optik-go/optik/ds"
	"github.com/optik-go/optik/ds/hashmap"
)

func TestRunChurnDrainsAndShrinks(t *testing.T) {
	const peak = 4000
	res := RunChurn(ChurnConfig{
		Threads: 4, PeakSize: peak, Cycles: 2, SearchPct: 30, SampleLatency: true,
	}, func() ds.Set { return hashmap.NewResizable(peak / 8) })

	if res.Ops == 0 || res.Mops <= 0 || res.Elapsed <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	// Conservation: once quiescent, the structure's count must equal the
	// net of successful inserts and deletes exactly.
	if res.FinalLen != res.Net {
		t.Fatalf("FinalLen = %d, Net = %d", res.FinalLen, res.Net)
	}
	if res.FinalLen < 0 || res.FinalLen > peak/16+4*churnBatch {
		t.Fatalf("FinalLen = %d, want within [0, trough+slack]", res.FinalLen)
	}
	// The run ends drained and quiesced: the resizable table must have
	// grown for the peak and then handed the buckets back. The bound is
	// derived from the actual final count (a stale grow batch can land
	// after the last flip): the quiesced table keeps at most the largest
	// power-of-two bucket count within the shrink band (4×FinalLen),
	// never below the 512-bucket floor.
	if res.Resizes < 3 {
		t.Fatalf("Resizes = %d, want grows plus shrinks", res.Resizes)
	}
	maxBuckets := 512
	for maxBuckets*2 <= 4*res.FinalLen {
		maxBuckets *= 2
	}
	if res.FinalBuckets < 512 || res.FinalBuckets > maxBuckets {
		t.Fatalf("FinalBuckets = %d for %d elements, want within [512, %d]",
			res.FinalBuckets, res.FinalLen, maxBuckets)
	}
	// Latency must be populated, phase-split, and sane.
	for name, s := range map[string]struct{ count int }{
		"all":    {res.Latency.Count},
		"grow":   {res.GrowLatency.Count},
		"drain":  {res.DrainLatency.Count},
		"search": {res.SearchLatency.Count},
	} {
		if s.count == 0 {
			t.Fatalf("%s latency summary empty", name)
		}
	}
	if res.Latency.P50 > res.Latency.P99 || res.Latency.P99 > res.Latency.Max {
		t.Fatalf("latency tail not ordered: %+v", res.Latency)
	}
	// Every phase transition quiesced (4 flips + the final settle).
	if res.Quiesces.Count < 4 {
		t.Fatalf("Quiesces.Count = %d, want >= 4", res.Quiesces.Count)
	}
}

func TestRunChurnSteadyPhase(t *testing.T) {
	const peak = 4000
	res := RunChurn(ChurnConfig{
		Threads: 4, PeakSize: peak, Cycles: 2, SearchPct: 30,
		SteadyOps: 2 * peak, SampleLatency: true,
	}, func() ds.Set { return hashmap.NewResizable(peak / 8) })

	if res.FinalLen != res.Net {
		t.Fatalf("FinalLen = %d, Net = %d", res.FinalLen, res.Net)
	}
	// The steady phase ran and was sampled separately from the mixed-in
	// searches of the update phases.
	if res.SteadyLatency.Count == 0 {
		t.Fatal("steady latency summary empty with SteadyOps set")
	}
	if res.SearchLatency.Count == 0 || res.GrowLatency.Count == 0 || res.DrainLatency.Count == 0 {
		t.Fatalf("update-phase summaries missing: %+v", res)
	}
	// Three flips per cycle now (grow->steady, steady->drain, drain->next)
	// plus the final settle.
	if res.Quiesces.Count < 6 {
		t.Fatalf("Quiesces.Count = %d with steady phases, want >= 6", res.Quiesces.Count)
	}
	// The recycling table reports its reclamation counters.
	if res.NodesRetired == 0 || res.NodesReused == 0 {
		t.Fatalf("reclamation counters empty: retired %d, reused %d", res.NodesRetired, res.NodesReused)
	}
	if res.NodesReused > res.NodesReclaimed || res.NodesReclaimed > res.NodesRetired {
		t.Fatalf("counter inversion: %d retired, %d reclaimed, %d reused",
			res.NodesRetired, res.NodesReclaimed, res.NodesReused)
	}
}

func TestRunChurnFixedTable(t *testing.T) {
	// Structures without Quiesce/Buckets must still churn correctly.
	res := RunChurn(ChurnConfig{
		Threads: 2, PeakSize: 2000, Cycles: 1, SearchPct: 10,
	}, func() ds.Set { return hashmap.NewSlab(256) })
	if res.FinalLen != res.Net {
		t.Fatalf("FinalLen = %d, Net = %d", res.FinalLen, res.Net)
	}
	if res.FinalBuckets != 0 || res.Resizes != 0 || res.Quiesces.Count != 0 {
		t.Fatalf("fixed table reported resize hooks: %+v", res)
	}
	if res.Latency.Count != 0 {
		t.Fatalf("latency sampled without SampleLatency: %+v", res.Latency)
	}
}

func TestRunChurnValidatesConfig(t *testing.T) {
	for _, cfg := range []ChurnConfig{
		{Threads: 0, PeakSize: 100},
		{Threads: 1, PeakSize: 0},
		{Threads: 1, PeakSize: 100, TroughSize: 100},
		{Threads: 1, PeakSize: 100, TroughSize: -1},
		{Threads: 1, PeakSize: 100, SteadyOps: -1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("config %+v did not panic", cfg)
				}
			}()
			RunChurn(cfg, func() ds.Set { return hashmap.NewResizable(8) })
		}()
	}
}

func TestRunRampSamplesLatency(t *testing.T) {
	res := RunRamp(RampConfig{
		Threads: 2, StartSize: 64, TargetSize: 4000, SearchPct: 10, SampleLatency: true,
	}, func() ds.Set { return hashmap.NewResizable(64) })
	if res.Latency.Count == 0 {
		t.Fatal("latency summary empty with SampleLatency")
	}
	if res.Latency.P50 > res.Latency.P99 || res.Latency.P99 > res.Latency.Max {
		t.Fatalf("latency tail not ordered: %+v", res.Latency)
	}
}
