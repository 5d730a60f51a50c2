package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"

	"github.com/optik-go/optik/bench/gen"
)

// small shrinks a workload so a smoke run sets up in milliseconds.
func small(w workload) *workload {
	w.Keys = 1 << 14
	w.replayOps = 20_000
	return &w
}

func names(ms []metric) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.name)
	}
	return out
}

// benchmarkJSON is the part of BENCHMARK.json the harness must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c benchmarkJSON
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	c := readBenchmarkJSON(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.Name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)",
				i, c.Workloads[i].Name, c.Workloads[i].Why, w.Name, w.why)
		}
	}
}

// TestSmoke runs one second of every workload, plain and traced: no reply
// may fail verification, and the metrics printed must be exactly the ones
// BENCHMARK.json names, units included.
func TestSmoke(t *testing.T) {
	c := readBenchmarkJSON(t)
	for _, full := range workloads {
		w := small(full)
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			cfg := runConfig{w: w, seed: 1, window: time.Second}
			for _, mode := range []struct {
				name string
				run  func(runConfig) (*report, error)
				want []struct{ Name, Unit string }
			}{{"plain", runPlain, c.EndToEnd}, {"traced", runTraced, c.PerLayer}} {
				rep, err := mode.run(cfg)
				if err != nil {
					t.Fatalf("%s: %v", mode.name, err)
				}
				if rep.failed != 0 || rep.attempted == 0 {
					t.Errorf("%s: %d of %d commands failed", mode.name, rep.failed, rep.attempted)
				}
				var want []string
				for i, m := range mode.want {
					want = append(want, m.Name)
					if i < len(rep.metrics) && rep.metrics[i].unit != m.Unit {
						t.Errorf("%s: %s is in %q, BENCHMARK.json says %q", mode.name, m.Name, rep.metrics[i].unit, m.Unit)
					}
				}
				if got := names(rep.metrics); !slices.Equal(got, want) {
					t.Errorf("%s prints\n%v\nBENCHMARK.json names\n%v", mode.name, got, want)
				}
			}
		})
	}
}

// TestReplayReadsTheRingsOps pins the claim the per-layer numbers rest on:
// the replay feeds the layers the ops connection 0 sends over the wire.
func TestReplayReadsTheRingsOps(t *testing.T) {
	for _, full := range workloads {
		w := small(full)
		lap := w.ringLen()
		ring := gen.BuildRing(&w.Workload, 5, 0, lap)
		const lap2 = 4096
		ops := streamOps(w, 5, lap+lap2)
		if !slices.Equal(ops[:lap], ring.Ops) || !slices.Equal(ops[lap:], ring.Ops[:lap2]) {
			t.Errorf("%s: the replay's ops differ from what connection 0's ring sends", w.Name)
		}
	}
}

// TestQuietQuarter pins the estimator: of eight slices, the two with the
// highest throughput are folded together, whatever their order.
func TestQuietQuarter(t *testing.T) {
	m := &measured{}
	for _, ops := range []uint64{50, 90, 60, 40, 100, 70, 55, 65} {
		var st gen.Stats
		st.Ops = ops
		st.Lat.Record(int64(1000 * ops))
		m.slices = append(m.slices, st)
		m.durs = append(m.durs, time.Second)
	}
	st, dur := m.quietQuarter()
	if st.Ops != 190 || dur != 2*time.Second || st.Lat.Count() != 2 || st.Lat.Max() != 100_000 {
		t.Errorf("quiet quarter holds %d ops over %v, %d samples, max %d; want the 100- and 90-op slices",
			st.Ops, dur, st.Lat.Count(), st.Lat.Max())
	}
}
