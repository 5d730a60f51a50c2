package workload

import (
	"runtime"
	"sort"
	"testing"
	"time"

	"github.com/optik-go/optik/ds"
	"github.com/optik-go/optik/ds/list"
	"github.com/optik-go/optik/ds/queue"
)

func TestRunSetBasics(t *testing.T) {
	cfg := Config{
		Threads:       4,
		Duration:      50 * time.Millisecond,
		InitialSize:   128,
		UpdatePct:     20,
		SampleLatency: true,
	}
	res := RunSet(cfg, func() ds.Set { return list.NewOptik() })
	if res.Ops == 0 {
		t.Fatal("no operations completed")
	}
	if res.Mops <= 0 {
		t.Fatal("throughput not positive")
	}
	var sum uint64
	for _, c := range res.Counts {
		sum += c
	}
	if sum != res.Ops {
		t.Fatalf("counts sum %d != ops %d", sum, res.Ops)
	}
	// Effective updates should be in the neighbourhood of the target 20%
	// (the key range doubles the attempted updates; allow slack).
	if res.EffectiveUpdates < 0.08 || res.EffectiveUpdates > 0.35 {
		t.Fatalf("effective updates = %v, want ~0.2", res.EffectiveUpdates)
	}
	if res.Latency[SearchSuc].Count == 0 {
		t.Fatal("no successful-search latency samples")
	}
	if res.Latency[SearchSuc].P95 < res.Latency[SearchSuc].P5 {
		t.Fatal("latency percentiles inverted")
	}
}

func TestRunSetZipf(t *testing.T) {
	cfg := Config{
		Threads:     2,
		Duration:    30 * time.Millisecond,
		InitialSize: 64,
		UpdatePct:   20,
		Zipf:        true,
	}
	res := RunSet(cfg, func() ds.Set { return list.NewLazy() })
	if res.Ops == 0 {
		t.Fatal("no operations completed")
	}
}

func TestRunSetValidatesConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bad config")
		}
	}()
	RunSet(Config{}, func() ds.Set { return list.NewOptik() })
}

func TestOpKindStrings(t *testing.T) {
	want := []string{"srch-suc", "insr-suc", "delt-suc", "srch-fal", "insr-fal", "delt-fal"}
	for k := OpKind(0); k < numOpKinds; k++ {
		if k.String() != want[k] {
			t.Fatalf("kind %d = %q, want %q", k, k.String(), want[k])
		}
	}
}

func TestRunQueueMixes(t *testing.T) {
	for _, enq := range []int{40, 50, 60} {
		cfg := QueueConfig{
			Threads:       4,
			Duration:      30 * time.Millisecond,
			InitialSize:   1024,
			EnqueuePct:    enq,
			SampleLatency: true,
		}
		res := RunQueue(cfg, func() ds.Queue { return queue.NewMSLF() })
		if res.Ops == 0 {
			t.Fatalf("enq=%d: no ops", enq)
		}
		if res.Enqueues+res.Dequeues != res.Ops {
			t.Fatalf("enq=%d: ops mismatch", enq)
		}
		frac := float64(res.Enqueues) / float64(res.Ops)
		if frac < float64(enq)/100-0.1 || frac > float64(enq)/100+0.1 {
			t.Fatalf("enq=%d: enqueue fraction %v", enq, frac)
		}
		if res.EnqLatency.Count == 0 || res.DeqLatency.Count == 0 {
			t.Fatalf("enq=%d: missing latency samples", enq)
		}
	}
}

func TestRunLockImpls(t *testing.T) {
	for _, impl := range LockImpls {
		res := RunLock(LockConfig{Threads: 4, Duration: 30 * time.Millisecond}, impl)
		if res.Validations == 0 {
			t.Fatalf("%s: no validated acquisitions", impl)
		}
		if res.CASPerValidation <= 0 {
			t.Fatalf("%s: CAS/validation = %v", impl, res.CASPerValidation)
		}
	}
}

func TestOptikLockBeatsTTASUnderContention(t *testing.T) {
	// The headline Figure-5 property, at reduced scale: with many threads
	// on one lock, the OPTIK versioned lock completes more validated
	// acquisitions than lock-then-validate TTAS, and spends fewer CAS per
	// validation.
	if testing.Short() {
		t.Skip("contention comparison skipped in -short")
	}
	// One 300 ms pair on a timeshared box can catch TTAS in a lucky
	// uncontended stretch (about 1 run in 80 inverted the comparison), so
	// the property is asserted on the median of three alternating pairs.
	cfg := LockConfig{Threads: 8, Duration: 300 * time.Millisecond}
	var ttasCAS, optikCAS, ttasMops, optikMops [3]float64
	for i := range ttasCAS {
		ttas := RunLock(cfg, LockTTAS)
		optik := RunLock(cfg, LockOptikVersioned)
		ttasCAS[i], optikCAS[i] = ttas.CASPerValidation, optik.CASPerValidation
		ttasMops[i], optikMops[i] = ttas.Mops, optik.Mops
	}
	median := func(v [3]float64) float64 {
		sort.Float64s(v[:])
		return v[1]
	}
	if median(optikMops) <= median(ttasMops) {
		t.Logf("warning: optik %.2f Mops <= ttas %.2f Mops (timing-sensitive)", median(optikMops), median(ttasMops))
	}
	if median(optikCAS) > median(ttasCAS) {
		t.Fatalf("optik CAS/validation %.2f > ttas %.2f (medians of %v and %v)",
			median(optikCAS), median(ttasCAS), optikCAS, ttasCAS)
	}
}

func TestMedianOf(t *testing.T) {
	i := 0
	res := MedianOf(3, func() QueueResult {
		i++
		return QueueResult{Mops: float64(i)}
	}, func(r QueueResult) float64 { return r.Mops })
	if res.Mops != 2 {
		t.Fatalf("median run = %v, want the middle one", res.Mops)
	}
}

// TestWindowOpensAfterSetup pins the ready barrier: workers whose setup
// outlasts the window (a zipfian generator's zeta over a large key
// range) must not eat into it. Without the barrier the window opens at
// spawn, closes before any worker is ready, and reports the setup as
// elapsed time with nothing run.
func TestWindowOpensAfterSetup(t *testing.T) {
	const threads = 4
	ran := make([]uint64, threads)
	m := window{threads: threads, duration: 10 * time.Millisecond}.run(func(id uint64, w *worker) uint64 {
		time.Sleep(200 * time.Millisecond) // per-thread setup
		for w.next() {
			ran[id]++
			runtime.Gosched() // more workers than cores: let each one in
		}
		return ran[id]
	})
	if m.elapsed >= 100*time.Millisecond {
		t.Fatalf("elapsed %v for a 10ms window: the window opened before setup finished", m.elapsed)
	}
	for id, n := range ran {
		if n == 0 {
			t.Fatalf("worker %d ran no operations", id)
		}
	}
	if sum := ran[0] + ran[1] + ran[2] + ran[3]; m.ops != sum {
		t.Fatalf("ops = %d, want the bodies' sum %d", m.ops, sum)
	}
}
