package figures

import (
	"bytes"
	"encoding/json"
	"slices"
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

// figure returns the named figure; resize at a tiny ramp that still
// doubles the resizable table several times.
func figure(t *testing.T, name string) Figure {
	t.Helper()
	if name == "resize" {
		return Figure{"resize", figResize(64, 2000)}
	}
	figs := Select(name)
	if len(figs) != 1 {
		t.Fatalf("Select(%q) = %d figures", name, len(figs))
	}
	return figs[0]
}

func TestNormalizeDefaults(t *testing.T) {
	o := RunOpts{}.Normalize()
	if len(o.Threads) == 0 || o.Duration <= 0 || o.Reps <= 0 {
		t.Fatalf("Normalize left zero fields: %+v", o)
	}
}

// joinKeys pins the (figure, workload, impl) keys of every figure's rows
// at tinyOpts' scale (churn peak 4000, a 64→2000 ramp, 8 connections at
// 100% and 25% active): bench-diff joins a run against its baseline on
// them, so a key that changes silently drops that row from the nightly
// gate. Each figure's keys are the product of its three lists.
var joinKeys = map[string]struct{ figures, workloads, impls []string }{
	"fig5": {[]string{"Figure 5"}, []string{"locks"},
		[]string{"ttas", "optik-ticket", "optik-versioned"}},
	"fig7": {[]string{"Figure 7"}, []string{"Small map", "Large map"},
		[]string{"mcs", "optik"}},
	"fig9": {[]string{"Figure 9"}, []string{"Large", "Medium", "Small", "Large skewed", "Small skewed"},
		[]string{"harris", "lazy", "mcs-gl-opt", "optik-gl", "optik", "optik-cache", "lazy-cache"}},
	"fig10": {[]string{"Figure 10"}, []string{"Medium", "Small skewed"},
		[]string{"lazy-gl", "java", "java-optik", "optik", "optik-gl", "optik-map"}},
	"fig11": {[]string{"Figure 11"}, []string{"Large skewed", "Small skewed"},
		[]string{"fraser", "herlihy", "herl-optik", "optik1", "optik2"}},
	"fig12": {[]string{"Figure 12"}, []string{"Decreasing size (40% enq)", "Stable size (50% enq)", "Increasing size (60% enq)"},
		[]string{"ms-lf", "ms-lb", "optik0", "optik1", "optik2", "optik3"}},
	"stacks": {[]string{"Stacks"}, []string{"50/50"},
		[]string{"treiber", "optik"}},
	"resize": {[]string{"Resize", "Resize latency"}, []string{"ramp 64 to 2000"},
		[]string{"lazy-gl-fixed", "optik-gl-fixed", "slab-fixed", "resizable"}},
	"churn": {[]string{"Churn"}, []string{"churn 4000/250 steady 4000"},
		[]string{"lazy-gl-fixed", "optik-gl-fixed", "slab-fixed", "resizable"}},
	"server": {[]string{"Server", "Server latency"}, []string{"zipf get90/set8/del2 batch20%x16 init 65536"},
		[]string{"store"}},
	"ordered": {[]string{"Ordered", "Ordered latency"}, []string{"zipf get80/set8/del2/scan10x64 init 65536"},
		[]string{"ordered"}},
	"conns": {[]string{"Conns"}, []string{"conns 8 active 100%", "conns 8 active 25%"},
		[]string{"conns"}},
}

// TestEveryFigureEmitsItsSeries runs every figure at tiny scale: each
// must print its sections and record exactly its pinned join keys.
func TestEveryFigureEmitsItsSeries(t *testing.T) {
	want := map[string][]string{
		"fig7":    {"Figure 7 (right)", "srch-suc", "delt-fal"},
		"fig12":   {"Figure 12 (right)", "enqueue", "dequeue"},
		"stacks":  {"stacks"},
		"resize":  {"Resize latency", "p99="},
		"churn":   {"Churn latency", "grow", "drain", "search", "steady", "final buckets"},
		"server":  {"Server latency", "batch", "hit rate"},
		"ordered": {"Ordered latency", "scan", "entries/scan"},
		"conns":   {"resident KiB"},
	}
	var all []string
	for _, figs := range [][]Figure{Paper, Sweeps} {
		for _, f := range figs {
			all = append(all, f.Name)
		}
	}
	if len(all) != len(joinKeys) {
		t.Fatalf("%d figures, %d pinned", len(all), len(joinKeys))
	}
	for _, name := range all {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var buf bytes.Buffer
			o := tinyOpts(&buf)
			rec := &Recorder{}
			o.Record = rec
			o.ChurnPeak = 4000
			o.Conns, o.ActivePcts = []int{8}, []int{100, 25}
			figure(t, name).Run(o)
			out := buf.String()
			for _, w := range want[name] {
				if !strings.Contains(out, w) {
					t.Fatalf("output missing %q:\n%s", w, out)
				}
			}

			pin := joinKeys[name]
			var wantKeys []string
			for _, f := range pin.figures {
				for _, w := range pin.workloads {
					for _, impl := range pin.impls {
						wantKeys = append(wantKeys, f+"|"+w+"|"+impl)
					}
				}
			}
			var gotKeys []string
			for _, r := range rec.Rows {
				if r.Mops <= 0 {
					t.Errorf("row without throughput: %+v", r)
				}
				gotKeys = append(gotKeys, r.Figure+"|"+r.Workload+"|"+r.Impl)
			}
			slices.Sort(wantKeys)
			slices.Sort(gotKeys)
			if !slices.Equal(gotKeys, wantKeys) {
				t.Fatalf("join keys:\n got %q\nwant %q", gotKeys, wantKeys)
			}
		})
	}
}

// TestTableTakesMedianOfReps pins what -reps means: each throughput cell
// runs Reps times, and the run with the median Mops/s is the one printed
// and recorded.
func TestTableTakesMedianOfReps(t *testing.T) {
	var buf bytes.Buffer
	o := tinyOpts(&buf)
	o.Reps = 3
	rec := &Recorder{}
	o.Record = rec
	runs := []float64{3, 1, 2}
	calls := 0
	Figure{"median", func(RunOpts) []Panel {
		return []Panel{{
			Figure: "Median", Workload: "reps", Title: "median of reps", Series: []string{"only"},
			Cell: func(_, th int) Row {
				calls++
				return Row{Mops: runs[calls-1], MaxProcs: calls}
			},
		}}
	}}.Run(o)
	if calls != 3 {
		t.Fatalf("cell ran %d times, want 3", calls)
	}
	if len(rec.Rows) != 1 {
		t.Fatalf("recorded %d rows, want 1", len(rec.Rows))
	}
	if got := rec.Rows[0]; got.Mops != 2 || got.MaxProcs != 3 || got.Impl != "only" || got.Threads != 2 {
		t.Fatalf("recorded %+v, want the third run (2 Mops/s), keyed only/2 threads", got)
	}
	if !strings.Contains(buf.String(), "2.000") {
		t.Fatalf("printed table lacks the median cell:\n%s", buf.String())
	}
}

func TestFigResizeEmitsSeriesAndRecords(t *testing.T) {
	var buf bytes.Buffer
	o := tinyOpts(&buf)
	rec := &Recorder{}
	o.Record = rec
	figure(t, "resize").Run(o)
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
	o.ChurnPeak = 4000 // tiny churn: still grows and shrinks the resizable table
	figure(t, "churn").Run(o)
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
	figure(t, "fig5").Run(o)
	if !strings.Contains(buf.String(), "Figure 5") {
		t.Fatal("fig5 with nil recorder produced no output")
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
	rec := &Recorder{}
	o.Record = rec
	figure(t, "server").Run(o)
	out := buf.String()
	for _, want := range []string{"Server", "Server latency", "store", "batch20%", "get", "set", "del", "batch", "hit rate"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	// One throughput row and one latency row.
	if got, want := len(rec.Rows), 2; got != want {
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
