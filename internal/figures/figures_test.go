package figures

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"github.com/optik-go/optik/ds"
)

// tinyOpts keeps the smoke runs fast.
func tinyOpts(buf *bytes.Buffer) RunOpts {
	return RunOpts{
		Threads:  []int{2},
		Duration: 20 * time.Millisecond,
		Reps:     1,
		Out:      buf,
	}
}

func TestNormalizeDefaults(t *testing.T) {
	o := RunOpts{}.Normalize()
	if len(o.Threads) == 0 || o.Duration <= 0 || o.Reps <= 0 {
		t.Fatalf("Normalize left zero fields: %+v", o)
	}
}

func TestEveryFigureEmitsItsSeries(t *testing.T) {
	cases := []struct {
		name string
		run  func(RunOpts)
		want []string
	}{
		{"fig5", Fig5, []string{"Figure 5", "ttas", "optik-versioned", "optik-ticket"}},
		{"fig7", Fig7, []string{"Figure 7", "mcs", "optik", "srch-suc", "delt-fal"}},
		{"fig9", Fig9, []string{"Figure 9", "harris", "lazy", "mcs-gl-opt", "optik-gl", "optik-cache", "lazy-cache", "Small skewed"}},
		{"fig10", Fig10, []string{"Figure 10", "lazy-gl", "java", "java-optik", "optik-map"}},
		{"fig11", Fig11, []string{"Figure 11", "fraser", "herlihy", "herl-optik", "optik1", "optik2"}},
		{"fig12", Fig12, []string{"Figure 12", "ms-lf", "ms-lb", "optik0", "optik3", "enqueue", "dequeue"}},
		{"stacks", Stacks, []string{"stacks", "treiber", "optik"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.name == "fig11" || c.name == "fig12" {
				// These prefill 65536 elements; keep but don't parallelize.
				t.Parallel()
			}
			var buf bytes.Buffer
			c.run(tinyOpts(&buf))
			out := buf.String()
			for _, want := range c.want {
				if !strings.Contains(out, want) {
					t.Fatalf("output missing %q:\n%s", want, out)
				}
			}
		})
	}
}

func TestFigResizeEmitsSeriesAndRecords(t *testing.T) {
	var buf bytes.Buffer
	o := tinyOpts(&buf)
	rec := &Recorder{}
	o.Record = rec
	figResize(o, 64, 2000) // tiny ramp: still several doublings for resizable
	out := buf.String()
	for _, want := range []string{"Resize", "Resize latency", "lazy-gl-fixed", "optik-gl-fixed", "slab-fixed", "resizable", "p99="} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	// One throughput row per algo plus one latency row per algo.
	if got, want := len(rec.Rows), 2*len(ResizeAlgos(64)); got != want {
		t.Fatalf("recorded %d rows, want %d", got, want)
	}
	for _, row := range rec.Rows {
		if row.Threads != 2 || row.Mops <= 0 {
			t.Fatalf("bad row: %+v", row)
		}
		switch row.Figure {
		case "Resize":
		case "Resize latency":
			if row.P50Ns <= 0 || row.P99Ns < row.P50Ns || row.MaxNs < row.P99Ns {
				t.Fatalf("latency row tail not ordered: %+v", row)
			}
		default:
			t.Fatalf("unexpected figure %q", row.Figure)
		}
	}

	var js bytes.Buffer
	if err := rec.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		GoVersion string `json:"go_version"`
		Rows      []Row  `json:"rows"`
	}
	if err := json.Unmarshal(js.Bytes(), &doc); err != nil {
		t.Fatalf("JSON output does not parse: %v\n%s", err, js.String())
	}
	if doc.GoVersion == "" || len(doc.Rows) != len(rec.Rows) {
		t.Fatalf("JSON document incomplete: %s", js.String())
	}
}

func TestFigChurnEmitsSeriesAndRecords(t *testing.T) {
	var buf bytes.Buffer
	o := tinyOpts(&buf)
	rec := &Recorder{}
	o.Record = rec
	figChurn(o, 4000) // tiny churn: still grows and shrinks the resizable table
	out := buf.String()
	for _, want := range []string{"Churn", "Churn latency", "resizable", "slab-fixed", "grow", "drain", "search", "final buckets"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if got, want := len(rec.Rows), len(ResizeAlgos(500)); got != want {
		t.Fatalf("recorded %d rows, want %d", got, want)
	}
	sawResizable := false
	for _, row := range rec.Rows {
		if row.Figure != "Churn" || row.Threads != 2 || row.Mops <= 0 {
			t.Fatalf("bad row: %+v", row)
		}
		if row.P50Ns <= 0 || row.P99Ns < row.P50Ns || row.MaxNs < row.P99Ns {
			t.Fatalf("latency tail not ordered: %+v", row)
		}
		if row.Impl == "resizable" {
			sawResizable = true
			// Peak 4000 needs ≥ 1024 buckets; the drained, quiesced table
			// must be back near its 512-bucket floor. The upper bound
			// allows for a stale grow batch landing after the last flip
			// (trough 250 + up to a batch per thread, ×4 for the band).
			if row.FinalBuckets < 512 || row.FinalBuckets > 4096 {
				t.Fatalf("resizable final buckets = %d, want within [512, 4096]", row.FinalBuckets)
			}
		}
	}
	if !sawResizable {
		t.Fatal("no resizable row recorded")
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var buf bytes.Buffer
	o := tinyOpts(&buf) // Record left nil
	Fig5(o)
	if !strings.Contains(buf.String(), "Figure 5") {
		t.Fatal("Fig5 with nil recorder produced no output")
	}
}

func TestAlgoRegistriesComplete(t *testing.T) {
	if got := len(Fig9ListAlgos()); got != 7 {
		t.Fatalf("fig9 series = %d, want 7", got)
	}
	if got := len(HashAlgos(8)); got != 6 {
		t.Fatalf("fig10 series = %d, want 6", got)
	}
	if got := len(SkiplistAlgos()); got != 5 {
		t.Fatalf("fig11 series = %d, want 5", got)
	}
	if got := len(QueueAlgos()); got != 6 {
		t.Fatalf("fig12 series = %d, want 6", got)
	}
	if got := len(MapAlgos(4)); got != 2 {
		t.Fatalf("fig7 series = %d, want 2", got)
	}
}

func TestHideHandlesSuppressesCaching(t *testing.T) {
	// The -cache series must expose per-goroutine handles; the plain series
	// of the same structures must not, or the workload driver would turn
	// node caching on for them too.
	for _, a := range Fig9ListAlgos() {
		_, handled := a.New().(ds.Handled)
		wantHandled := a.Name == "optik-cache" || a.Name == "lazy-cache"
		if handled != wantHandled {
			t.Errorf("series %q: Handled = %v, want %v", a.Name, handled, wantHandled)
		}
	}
}

func TestFigServerEmitsSeriesAndRecords(t *testing.T) {
	var buf bytes.Buffer
	o := tinyOpts(&buf)
	o.Shards = []int{1, 2}
	o.BatchPct = 25
	rec := &Recorder{}
	o.Record = rec
	FigServer(o)
	out := buf.String()
	for _, want := range []string{"Server", "Server latency", "store-1sh", "store-2sh", "batch25%", "get", "set", "del", "batch", "hit rate"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	// One throughput row per shard count plus one latency row per shard
	// count.
	if got, want := len(rec.Rows), 2*len(o.Shards); got != want {
		t.Fatalf("recorded %d rows, want %d", got, want)
	}
	for _, row := range rec.Rows {
		if row.Threads != 2 || row.Mops <= 0 {
			t.Fatalf("bad row: %+v", row)
		}
		switch row.Figure {
		case "Server":
			if row.FinalBuckets <= 0 {
				t.Fatalf("server row without buckets: %+v", row)
			}
		case "Server latency":
			if row.P50Ns <= 0 || row.P99Ns < row.P50Ns || row.MaxNs < row.P99Ns {
				t.Fatalf("latency row tail not ordered: %+v", row)
			}
		default:
			t.Fatalf("unexpected figure %q", row.Figure)
		}
	}
}

func TestNormalizeShards(t *testing.T) {
	got := normalizeShards([]int{3, 4, 17, 1000})
	want := []int{4, 32, 256}
	if len(got) != len(want) {
		t.Fatalf("normalizeShards = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("normalizeShards = %v, want %v", got, want)
		}
	}
	if d := normalizeShards(nil); len(d) != 3 || d[0] != 1 {
		t.Fatalf("default shards = %v", d)
	}
}
