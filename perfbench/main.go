// Command perfbench is the repository's benchmark: it runs one named
// workload of simulated LaunchMON sessions for a fixed host-time budget,
// checks every session's outputs, and prints the end-to-end metrics (or,
// with -trace 1, the per-layer metrics) as the last line of standard
// output. See README.md for the workloads and the metric map.
//
// Build and run from the repository root with
//
//	bash perfbench/run.sh --workload tool_traffic --seed 1 --seconds 35 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"launchmon/internal/engine"
	"launchmon/internal/proctab"
)

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 35, "host seconds to measure")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload {%s} --seed N --seconds S --trace {0|1}\n", strings.Join(names, "|"))
		os.Exit(2)
	}
	res, err := runWorkload(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err == nil {
		err = json.NewEncoder(os.Stdout).Encode(res)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// repKind is what a rep instruments.
type repKind int

const (
	// plainRep instruments nothing: the configuration every end-to-end
	// metric is measured in.
	plainRep repKind = iota
	// tracedRep records spans, the spawn count, Go runtime metrics and a
	// CPU profile, with the session obs plane off, so its layer shares
	// describe the plain configuration.
	tracedRep
	// obsRep is a tracedRep with the session obs plane on (Options.Obs),
	// for the plane's counters; the plane changes wire bytes and costs
	// host time, so nothing else is taken from it.
	obsRep
)

func (k repKind) String() string { return [...]string{"plain", "traced", "traced+obs"}[k] }

// outcome is what one rep measured.
type outcome struct {
	Kind      repKind
	Setups    []float64 // boot seconds: the boot-only rigs, then the rep's own
	Wall, CPU time.Duration
	RSS       uint64
	Attempted int
	Failed    int
	E2E       map[string]metric
	Layer     map[string]metric // tracedRep: per-layer metrics; obsRep: obs counters
	Profile   []byte            // tracedRep only
	FP        uint64
}

// runWorkload runs reps of w until the budget is spent. A traced run
// cycles through the three rep kinds (at least one of each), so tracing
// overhead is measured within the run.
func runWorkload(w workload, seed int64, budget time.Duration, trace bool) (result, error) {
	in := makeInputs(w, seed)
	cycle := []repKind{plainRep}
	if trace {
		cycle = []repKind{tracedRep, plainRep, obsRep}
	}
	start := time.Now()
	byKind := map[repKind][]outcome{}
	res := result{Metrics: map[string]metric{}}
	var setups []float64
	fps := map[uint64]bool{}
	for i := 0; ; i++ {
		repStart := time.Now()
		o, err := runRep(w, in, cycle[i%len(cycle)])
		if err != nil {
			return result{}, err
		}
		fmt.Printf("rep %d kind=%v setup=%.3fs wall=%.3fs cpu=%.3fs rss=%.0fMB fingerprint=%016x failed=%d\n",
			i, o.Kind, o.Setups[len(o.Setups)-1], o.Wall.Seconds(), o.CPU.Seconds(), float64(o.RSS)/1e6, o.FP, o.Failed)
		byKind[o.Kind] = append(byKind[o.Kind], o)
		res.Attempted += o.Attempted
		res.Failed += o.Failed
		setups = append(setups, o.Setups...)
		if o.Kind == plainRep {
			fps[o.FP] = true
		}
		if i+1 >= len(cycle) && time.Since(start)+time.Since(repStart) > budget {
			break
		}
	}
	res.Correct = res.Failed == 0
	var list []string
	for fp := range fps {
		list = append(list, fmt.Sprintf("%016x", fp))
	}
	sort.Strings(list)
	fmt.Printf("fingerprints workload=%s seed=%d distinct=%d %s\n", w.name, seed, len(list), strings.Join(list, " "))

	if !trace {
		res.Metrics = medianMetrics(byKind[plainRep], func(o outcome) map[string]metric { return o.E2E })
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		return res, nil
	}
	for _, kind := range []repKind{tracedRep, obsRep} {
		for name, m := range medianMetrics(byKind[kind], func(o outcome) map[string]metric { return o.Layer }) {
			res.Metrics[name] = m
		}
	}
	var profiles [][]byte
	for _, o := range byKind[tracedRep] {
		if o.Profile != nil {
			profiles = append(profiles, o.Profile)
		}
	}
	frac, samples, err := attribute(profiles)
	if err != nil {
		return result{}, err
	}
	for _, l := range layers {
		res.Metrics["host.self_frac."+l] = metric{frac[l], "frac"}
	}
	res.Metrics["host.profile_samples"] = metric{float64(samples), "count"}
	wall := func(kind repKind) float64 {
		return medianOf(byKind[kind], func(o outcome) float64 { return o.Wall.Seconds() })
	}
	res.Metrics["trace.overhead_s"] = metric{wall(tracedRep) - wall(plainRep), "s"}
	res.Metrics["trace.obs_overhead_s"] = metric{wall(obsRep) - wall(tracedRep), "s"}
	return res, nil
}

func medianOf(outs []outcome, f func(outcome) float64) float64 {
	var xs []float64
	for _, o := range outs {
		xs = append(xs, f(o))
	}
	return median(xs)
}

// medianMetrics takes each metric's median over the reps.
func medianMetrics(outs []outcome, pick func(outcome) map[string]metric) map[string]metric {
	out := map[string]metric{}
	if len(outs) == 0 {
		return out
	}
	for name, m := range pick(outs[0]) {
		out[name] = metric{medianOf(outs, func(o outcome) float64 { return pick(o)[name].Value }), m.Unit}
	}
	return out
}

// setupBoots is the number of boot-only rigs each rep times before its
// own: rig boot is short and noisy, and long reps give few boots per run.
const setupBoots = 2

// freshHeap starts a timed section from the same heap every time: the
// previous section's garbage is collected and returned to the OS first.
func freshHeap() {
	runtime.GC()
	debug.FreeOSMemory()
}

// bootOnly times one rig boot, then runs the idle simulation so its
// system processes tear down.
func bootOnly(w workload) (time.Duration, error) {
	freshHeap()
	t0 := time.Now()
	rg, err := bootRig(w, nil)
	if err != nil {
		return 0, fmt.Errorf("rig boot: %w", err)
	}
	d := time.Since(t0)
	rg.sim.Run()
	return d, nil
}

// runRep times setupBoots boot-only rigs, then boots a fresh rig and runs
// one simulated session on it.
func runRep(w workload, in inputs, kind repKind) (outcome, error) {
	o := outcome{Kind: kind}
	for i := 0; i < setupBoots; i++ {
		d, err := bootOnly(w)
		if err != nil {
			return o, err
		}
		o.Setups = append(o.Setups, d.Seconds())
	}
	freshHeap()
	var tr *tracer
	if kind != plainRep {
		tr = newTracer()
	}
	t0 := time.Now()
	rg, err := bootRig(w, tr)
	if err != nil {
		return o, fmt.Errorf("rig boot: %w", err)
	}
	o.Setups = append(o.Setups, time.Since(t0).Seconds())
	if err := resetPeakRSS(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: peak RSS covers the whole process:", err)
	}
	rp := &rep{w: w, in: in, tr: tr, obs: kind == obsRep, rg: rg}
	rp.run()
	var all []time.Duration
	h := fnv.New64a()
	fmt.Fprint(h, rp.ready, rp.mwReady, rp.loop, rp.wireBytes)
	for _, rts := range rp.rt {
		fmt.Fprint(h, rts)
		all = append(all, rts...)
	}
	o.FP = h.Sum64()
	if len(all) < 100 {
		rp.fail("%d round trips completed, fewer than the 100 a p90 needs", len(all))
	}
	switch {
	case rp.sess == nil:
	case kind == tracedRep:
		o.Layer = layerMetrics(rp, tr, len(all))
		rp.attempt(1)
		if tr.profErr != nil {
			rp.fail("cpu profile: %v", tr.profErr)
		} else {
			o.Profile = tr.prof.Bytes()
		}
		if err := saveSpans(w, tr); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: spans:", err)
		}
	case kind == obsRep:
		o.Layer = obsMetrics(tr)
	}
	for _, e := range rp.errs {
		fmt.Fprintf(os.Stderr, "%s: %s\n", w.name, e)
	}
	o.Attempted, o.Failed = rp.attempted, rp.failed
	o.Wall, o.CPU, o.RSS = rp.wall-rp.checkHost, rp.cpu-rp.checkHost, rp.rss
	rtPer := 0.0
	if rp.loop > 0 {
		rtPer = float64(len(all)) / rp.loop.Seconds()
	}
	o.E2E = map[string]metric{
		"ready_vs":    {rp.ready.Seconds(), "vs"},
		"mw_ready_vs": {rp.mwReady.Seconds(), "vs"},
		"rt_p50_vms":  {ms(percentile(all, 50)), "vms"},
		"rt_p90_vms":  {ms(percentile(all, 90)), "vms"},
		"rt_per_vs":   {rtPer, "1/vs"},
		"wire_mb":     {float64(rp.wireBytes) / 1e6, "MB"},
		"wall_s":      {o.Wall.Seconds(), "s"},
		"cpu_s":       {o.CPU.Seconds(), "s"},
		"peak_rss_mb": {float64(o.RSS) / 1e6, "MB"},
	}
	return o, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// layerMetrics derives a traced rep's per-layer metrics.
func layerMetrics(rp *rep, tr *tracer, rts int) map[string]metric {
	m := map[string]metric{}
	vs := func(name string, d time.Duration) { m[name] = metric{d.Seconds(), "vs"} }
	vms := func(name string, d time.Duration) { m[name] = metric{ms(d), "vms"} }
	count := func(name string, v float64) { m[name] = metric{v, "count"} }
	hostSum := func(span string) float64 {
		var s time.Duration
		for _, d := range tr.durations(span, true) {
			s += d
		}
		return s.Seconds()
	}

	// Simulator: goroutines and network work.
	count("vtime.spawns", float64(tr.spawns.Load()))
	count("vtime.goroutines_peak", float64(rp.rg.sim.PeakLive()))
	st := rp.rg.cl.Net().Stats()
	count("simnet.msgs", float64(st.Messages))
	m["simnet.bytes"] = metric{float64(st.Bytes), "B"}
	count("simnet.dials", float64(st.Dials))

	// Go runtime over the measured interval.
	m["gc.alloc_mb"] = metric{tr.rtDelta["/gc/heap/allocs:bytes"] / 1e6, "MB"}
	count("gc.cycles", tr.rtDelta["/gc/cycles/total:gc-cycles"])
	busy := tr.rtDelta["/cpu/classes/total:cpu-seconds"] - tr.rtDelta["/cpu/classes/idle:cpu-seconds"]
	gcFrac := 0.0
	if busy > 0 {
		gcFrac = tr.rtDelta["/cpu/classes/gc/total:cpu-seconds"] / busy
	}
	m["gc.cpu_frac"] = metric{gcFrac, "frac"}
	m["gc.heap_peak_mb"] = metric{float64(tr.heapPeak.Load()) / 1e6, "MB"}

	// Virtual-time segments of the launch critical path.
	tl := rp.sess.Timeline
	vs("engine.fetch_vs", tl.Between(engine.MarkE3, engine.MarkE4))
	vs("rm.spawn_vs", tl.Between(engine.MarkE5, engine.MarkE6))
	vs("iccl.netsetup_vs", tl.Between(engine.MarkE8, engine.MarkE9))
	beinit := tr.durations("daemon.BEInit", false)
	vs("core.beinit_vs_p50", percentile(beinit, 50))
	vs("core.beinit_vs_max", percentile(beinit, 100))

	// Tool round trips, split at the front end and seen from the daemons.
	vms("core.fe_bcast_vms_p50", percentile(tr.durations("fe.broadcast", false), 50))
	vms("core.fe_gather_wait_vms_p50", percentile(tr.durations("fe.collect", false), 50))
	var collect time.Duration
	dc := tr.durations("daemon.collect", false)
	for _, d := range dc {
		collect += d
	}
	vms("core.daemon_collect_vms_mean", collect/time.Duration(max(len(dc), 1)))
	count("rt.samples", float64(rts))

	// Host seconds inside the front end's public calls and the rig pieces.
	m["core.launch_host_s"] = metric{hostSum("core.LaunchAndSpawn"), "s"}
	m["core.launchmw_host_s"] = metric{hostSum("core.LaunchMW"), "s"}
	m["core.tools_host_s"] = metric{hostSum("fe.tools"), "s"}
	for _, piece := range []string{"cluster", "slurm", "services", "core"} {
		m["rig."+piece+"_s"] = metric{hostSum("rig." + piece), "s"}
	}

	// The RPDTAB codecs on the front end's table, timed outside the
	// simulation (median of five calls each).
	tab := rp.sess.Proctab()
	sorted := append(proctab.Table(nil), tab...)
	sorted.SortByRank()
	enc := tab.Encode()
	codec := func(metricName, span string, f func() error) {
		var xs []float64
		for i := 0; i < 5; i++ {
			rp.attempt(1)
			sp := tr.hostSpan(span)
			err := f()
			tr.endHost(sp)
			if err != nil {
				rp.fail("%s: %v", span, err)
			}
		}
		for _, d := range tr.durations(span, true) {
			xs = append(xs, d.Seconds())
		}
		m[metricName] = metric{median(xs), "s"}
	}
	codec("proctab.encode_s", "proctab.Encode", func() error { tab.Encode(); return nil })
	codec("proctab.decode_s", "proctab.Decode", func() error { _, err := proctab.Decode(enc); return err })
	codec("proctab.index_s", "proctab.BuildIndex", func() error { _, err := proctab.BuildIndex(sorted); return err })

	return m
}

// obsMetrics reads an obs rep's session counters, harvested from every
// daemon of both fabrics.
func obsMetrics(tr *tracer) map[string]metric {
	m := map[string]metric{}
	for _, name := range []string{"iccl.tx.frames", "iccl.dial.retries", "seed.fwd.chunks",
		"fe.relay.chunks", "coll.tx.frames", "coll.credit.tx.frames"} {
		m[name] = metric{float64(tr.obs.Counters[name]), "count"}
	}
	m["coll.queue.depth.max"] = metric{float64(tr.obs.Gauges["coll.queue.depth.max"]), "count"}
	return m
}

// saveSpans writes a traced rep's front-end and host spans, one JSON
// object per line, under the build directory of the checkout.
func saveSpans(w workload, tr *tracer) error {
	dir := ".bench_build"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "spans-"+w.name+".jsonl"))
	if err != nil {
		return err
	}
	if err := tr.writeSpans(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
