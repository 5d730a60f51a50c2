package figures

import (
	"fmt"

	"github.com/optik-go/optik/ds"
	"github.com/optik-go/optik/ds/arraymap"
	"github.com/optik-go/optik/ds/hashmap"
	"github.com/optik-go/optik/ds/list"
	"github.com/optik-go/optik/ds/queue"
	"github.com/optik-go/optik/ds/skiplist"
	"github.com/optik-go/optik/ds/stack"
	"github.com/optik-go/optik/internal/workload"
)

// Paper lists the paper's evaluation in optik-bench's order: Figures 5,
// 7, 9–12 and the §5.5 stacks, with the rows and series the paper draws.
var Paper = []Figure{
	{"fig5", fig5},
	{"fig7", fig7},
	{"fig9", fig9},
	{"fig10", fig10},
	{"fig11", fig11},
	{"fig12", fig12},
	{"stacks", figStacks},
}

// NamedSet couples a graph key with a Set factory.
type NamedSet = Named[ds.Set]

// setWorkload is one panel of a set-structure figure.
type setWorkload struct {
	label       string
	initialSize int
	updatePct   int
	zipf        bool
}

// ListAlgos returns the Figure-9 series in graph order.
func ListAlgos() []NamedSet {
	return []NamedSet{
		{"harris", func() ds.Set { return list.NewHarris() }},
		{"lazy", func() ds.Set { return list.NewLazy() }},
		{"mcs-gl-opt", func() ds.Set { return list.NewMCSGL() }},
		{"optik-gl", func() ds.Set { return list.NewOptikGL() }},
		{"optik", func() ds.Set { return list.NewOptik() }},
		{"optik-cache", func() ds.Set { return list.NewOptik() }}, // handles via HandleFor
		{"lazy-cache", func() ds.Set { return list.NewLazy() }},
	}
}

// noHandle hides a structure's Handled interface: RunSet enables node
// caching through ds.HandleFor, so the cache-less series of a caching
// structure wrap it.
type noHandle struct{ ds.Set }

// hideHandles prevents ds.HandleFor from discovering node-cache handles on
// series that must run without them.
func hideHandles(n NamedSet) NamedSet {
	inner := n.New
	return NamedSet{Name: n.Name, New: func() ds.Set { return noHandle{inner()} }}
}

// Fig9ListAlgos returns the Figure-9 series with caching enabled only on
// the -cache series.
func Fig9ListAlgos() []NamedSet {
	algos := ListAlgos()
	out := make([]NamedSet, 0, len(algos))
	for _, a := range algos {
		switch a.Name {
		case "optik-cache", "lazy-cache":
			out = append(out, a)
		default:
			out = append(out, hideHandles(a))
		}
	}
	return out
}

// HashAlgos returns the Figure-10 series in graph order. buckets follows
// the paper: one bucket per initial element.
func HashAlgos(buckets int) []NamedSet {
	return []NamedSet{
		{"lazy-gl", func() ds.Set { return hashmap.NewLazyGL(buckets) }},
		{"java", func() ds.Set { return hashmap.NewJava(buckets, 0) }},
		{"java-optik", func() ds.Set { return hashmap.NewJavaOptik(buckets, 0) }},
		{"optik", func() ds.Set { return hashmap.NewOptik(buckets) }},
		{"optik-gl", func() ds.Set { return hashmap.NewOptikGL(buckets) }},
		{"optik-map", func() ds.Set { return hashmap.NewOptikMap(buckets, 0) }},
	}
}

// SkiplistAlgos returns the Figure-11 series in graph order.
func SkiplistAlgos() []NamedSet {
	return []NamedSet{
		{"fraser", func() ds.Set { return skiplist.NewFraser() }},
		{"herlihy", func() ds.Set { return skiplist.NewHerlihy() }},
		{"herl-optik", func() ds.Set { return skiplist.NewHerlihyOptik() }},
		{"optik1", func() ds.Set { return skiplist.NewOptik1() }},
		{"optik2", func() ds.Set { return skiplist.NewOptik2() }},
	}
}

// QueueAlgos returns the Figure-12 series in graph order.
func QueueAlgos() []Named[ds.Queue] {
	return []Named[ds.Queue]{
		{"ms-lf", func() ds.Queue { return queue.NewMSLF() }},
		{"ms-lb", func() ds.Queue { return queue.NewMSLB() }},
		{"optik0", func() ds.Queue { return queue.NewOptik0() }},
		{"optik1", func() ds.Queue { return queue.NewOptik1() }},
		{"optik2", func() ds.Queue { return queue.NewOptik2() }},
		{"optik3", func() ds.Queue { return queue.NewOptikVictim(0) }},
	}
}

// MapAlgos returns the Figure-7 series.
func MapAlgos(capacity int) []NamedSet {
	return []NamedSet{
		{"mcs", func() ds.Set { return arraymap.NewMCS(capacity) }},
		{"optik", func() ds.Set { return arraymap.NewOptik(capacity) }},
	}
}

// StackAlgos returns the §5.5 series.
func StackAlgos() []Named[ds.Stack] {
	return []Named[ds.Stack]{
		{"treiber", func() ds.Stack { return stack.NewTreiber() }},
		{"optik", func() ds.Stack { return stack.NewOptik() }},
	}
}

// setPanels is a set-structure figure: a panel per workload, a series
// per algorithm, each cell a RunSet over the panel's workload.
func setPanels(o RunOpts, figure string, wls []setWorkload, algosFor func(setWorkload) []NamedSet) []Panel {
	panels := make([]Panel, len(wls))
	for i, wl := range wls {
		algos := algosFor(wl)
		zipf := ""
		if wl.zipf {
			zipf = ", zipf a=0.9"
		}
		panels[i] = Panel{
			Figure: figure, Workload: wl.label,
			Title: fmt.Sprintf("%s — %s (%d elements, %d%% updates%s)",
				figure, wl.label, wl.initialSize, wl.updatePct, zipf),
			Series: names(algos),
			Cell: func(s, th int) Row {
				return Row{Mops: workload.RunSet(workload.Config{
					Threads: th, Duration: o.Duration,
					InitialSize: wl.initialSize, UpdatePct: wl.updatePct, Zipf: wl.zipf,
				}, algos[s].New).Mops}
			},
		}
	}
	return panels
}

// fig5 regenerates Figure 5: validated single-lock throughput and CAS per
// validation for ttas / optik-ticket / optik-versioned.
func fig5(o RunOpts) []Panel {
	series := make([]string, len(workload.LockImpls))
	for i, impl := range workload.LockImpls {
		series[i] = string(impl)
	}
	return []Panel{{
		Figure: "Figure 5", Workload: "locks",
		Title:  "Figure 5 — locking and validation with and without OPTIK locks (Mops/s / CAS per validation)",
		Series: series,
		Cell: func(s, th int) Row {
			res := workload.RunLock(workload.LockConfig{Threads: th, Duration: o.Duration}, workload.LockImpls[s])
			return Row{Mops: res.Mops, CASPerValidation: res.CASPerValidation}
		},
	}}
}

// fig7 regenerates Figure 7: lock-based vs OPTIK-based array map on the
// small (4 elements) and large (1024 elements) workloads, plus the
// latency-distribution boxplots at 10 threads.
func fig7(o RunOpts) []Panel {
	// The array map is sized exactly to its initial element count, as in
	// the paper: it starts full, so insertions only succeed after a
	// deletion frees a slot (on the 4-element map "only 25% of the updates
	// are successful").
	mapAlgos := func(wl setWorkload) []NamedSet { return MapAlgos(wl.initialSize) }
	small := setWorkload{"Small map", 4, 10, false}
	panels := setPanels(o, "Figure 7", []setWorkload{
		small,
		{"Large map", 1024, 10, false},
	}, mapAlgos)
	algos := mapAlgos(small)
	return append(panels, Panel{
		Title:   "Figure 7 (right) — latency distribution, small map, 10 threads (ns)",
		Series:  names(algos),
		Threads: []int{10},
		Sample: func(s, th int) (Row, []string) {
			res := workload.RunSet(workload.Config{
				Threads: th, Duration: o.Duration,
				InitialSize: small.initialSize, UpdatePct: small.updatePct, SampleLatency: true,
			}, algos[s].New)
			lines := make([]string, len(res.Latency))
			for k, sum := range res.Latency {
				lines[k] = kindLine(workload.OpKind(k).String(), sum)
			}
			return Row{}, lines
		},
	})
}

// fig9 regenerates Figure 9: linked lists over five workloads.
func fig9(o RunOpts) []Panel {
	return setPanels(o, "Figure 9", []setWorkload{
		{"Large", 8192, 20, false},
		{"Medium", 1024, 20, false},
		{"Small", 64, 20, false},
		{"Large skewed", 8192, 20, true},
		{"Small skewed", 64, 20, true},
	}, func(setWorkload) []NamedSet { return Fig9ListAlgos() })
}

// fig10 regenerates Figure 10: hash tables on the medium and small-skewed
// workloads (buckets = initial size).
func fig10(o RunOpts) []Panel {
	return setPanels(o, "Figure 10", []setWorkload{
		{"Medium", 8192, 20, false},
		{"Small skewed", 512, 20, true},
	}, func(wl setWorkload) []NamedSet { return HashAlgos(wl.initialSize) })
}

// fig11 regenerates Figure 11: skip lists on the large-skewed and
// small-skewed workloads.
func fig11(o RunOpts) []Panel {
	return setPanels(o, "Figure 11", []setWorkload{
		{"Large skewed", 65536, 20, true},
		{"Small skewed", 1024, 20, true},
	}, func(setWorkload) []NamedSet { return SkiplistAlgos() })
}

// fig12 regenerates Figure 12: queues over the three mixes, plus the
// enqueue/dequeue latency boxplots at 10 threads on the stable mix.
func fig12(o RunOpts) []Panel {
	algos := QueueAlgos()
	run := func(s, th, enqueuePct int, sample bool) workload.QueueResult {
		return workload.RunQueue(workload.QueueConfig{
			Threads: th, Duration: o.Duration,
			InitialSize: 65536, EnqueuePct: enqueuePct, SampleLatency: sample,
		}, algos[s].New)
	}
	var panels []Panel
	for _, mix := range []struct {
		label      string
		enqueuePct int
	}{
		{"Decreasing size (40% enq)", 40},
		{"Stable size (50% enq)", 50},
		{"Increasing size (60% enq)", 60},
	} {
		panels = append(panels, Panel{
			Figure: "Figure 12", Workload: mix.label,
			Title:  fmt.Sprintf("Figure 12 — queues, %s, init 65536", mix.label),
			Series: names(algos),
			Cell:   func(s, th int) Row { return Row{Mops: run(s, th, mix.enqueuePct, false).Mops} },
		})
	}
	return append(panels, Panel{
		Title:   "Figure 12 (right) — enq/deq latency, stable mix, 10 threads (ns)",
		Series:  names(algos),
		Threads: []int{10},
		Sample: func(s, th int) (Row, []string) {
			res := run(s, th, 50, true)
			return Row{}, []string{kindLine("enqueue", res.EnqLatency), kindLine("dequeue", res.DeqLatency)}
		},
	})
}

// figStacks regenerates the §5.5 stack comparison (not a numbered figure
// in the paper; reported as "behave similarly").
func figStacks(o RunOpts) []Panel {
	algos := StackAlgos()
	return []Panel{{
		Figure: "Stacks", Workload: "50/50",
		Title:  "§5.5 — stacks, 50/50 push/pop",
		Series: names(algos),
		Cell: func(s, th int) Row {
			return Row{Mops: workload.RunStack(th, o.Duration, algos[s].New)}
		},
	}}
}
