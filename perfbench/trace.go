package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"launchmon/internal/core"
	"launchmon/internal/obs"
	"launchmon/internal/vtime"
)

// tracer instruments one traced rep from outside the program: spans
// around calls into public functions (virtual and host time), the
// simulator's spawn count, Go runtime GC metrics, a CPU profile of the
// measured interval, and the session's obs counters. A nil *tracer is an
// untraced rep; every method is then a no-op.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span

	spawns atomic.Int64

	prof       bytes.Buffer
	profErr    error
	rtStart    []metrics.Sample
	rtDelta    map[string]float64
	heapPeak   atomic.Uint64
	stopSample chan struct{}
	sampled    sync.WaitGroup

	obs obs.Snapshot
}

// span is one call into a layer. IDs start at 1; Parent is the span that
// caused this one (0 for none). The spans of one tool round trip, at the
// front end and at every daemon, share Tool and Round. Virtual times are
// simulation clock readings; host times are offsets from the tracer's
// creation.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Daemon bool          `json:"daemon,omitempty"`
	Tool   string        `json:"tool,omitempty"`
	Round  int           `json:"round"`
	V0     time.Duration `json:"v0_ns"`
	V1     time.Duration `json:"v1_ns"`
	H0     time.Duration `json:"h0_ns"`
	H1     time.Duration `json:"h1_ns"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// span opens s at the current virtual and host time and returns its ID.
func (t *tracer) span(sim *vtime.Sim, s span) int {
	if t == nil {
		return 0
	}
	s.V0, s.H0 = sim.Now(), time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

func (t *tracer) end(sim *vtime.Sim, id int) {
	if t == nil {
		return
	}
	v, h := sim.Now(), time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].V1, t.spans[id-1].H1 = v, h
	t.mu.Unlock()
}

// hostSpan opens a span around a call made outside the simulation (rig
// boot, table codecs), which takes no virtual time.
func (t *tracer) hostSpan(name string) int {
	if t == nil {
		return 0
	}
	h := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Name: name, H0: h})
	return len(t.spans)
}

func (t *tracer) endHost(id int) {
	if t == nil {
		return
	}
	h := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].H1 = h
	t.mu.Unlock()
}

// runtimeMetrics are the Go runtime counters read at both ends of the
// measured interval.
var runtimeMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

func sampleValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

// begin starts the interval instruments just before the simulation runs.
func (t *tracer) begin(sim *vtime.Sim) {
	if t == nil {
		return
	}
	sim.SetSpawnObserver(func(string) { t.spawns.Add(1) })
	t.rtStart = readRuntime()
	t.stopSample = make(chan struct{})
	t.sampled.Add(1)
	go t.sampleHeap()
	t.profErr = pprof.StartCPUProfile(&t.prof)
}

// sampleHeap tracks the peak of live heap objects until the interval ends.
func (t *tracer) sampleHeap() {
	defer t.sampled.Done()
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		metrics.Read(s)
		if v := s[0].Value.Uint64(); v > t.heapPeak.Load() {
			t.heapPeak.Store(v)
		}
		select {
		case <-t.stopSample:
			return
		case <-tick.C:
		}
	}
}

// endInterval stops the interval instruments when the last tool round
// trip completes. Calls after the first do nothing.
func (t *tracer) endInterval() {
	if t == nil || t.rtDelta != nil {
		return
	}
	if t.profErr == nil {
		pprof.StopCPUProfile()
	}
	close(t.stopSample)
	t.sampled.Wait()
	end := readRuntime()
	t.rtDelta = make(map[string]float64, len(end))
	for i := range end {
		t.rtDelta[end[i].Name] = sampleValue(end[i]) - sampleValue(t.rtStart[i])
	}
}

// awaitHarvests waits (in virtual time) for the tree-harvested metrics
// both fabrics push at ready and at finalize, then keeps the session's
// merged snapshot.
func (t *tracer) awaitHarvests(rp *rep, sim *vtime.Sim, sess *core.Session) {
	const want = 4 // BE and MW fabrics, each at ready and at finalize
	rp.attempt(1)
	for i := 0; ; i++ {
		snap, err := sess.MetricsSnapshot()
		if err != nil {
			rp.fail("MetricsSnapshot: %v", err)
			return
		}
		t.obs = snap
		if snap.Counters["obs.harvests"] >= want {
			return
		}
		if i == 600 {
			rp.fail("obs harvest: %d of %d snapshots after %v", snap.Counters["obs.harvests"], want, 60*time.Second)
			return
		}
		sim.Sleep(100 * time.Millisecond)
	}
}

// durations returns the virtual durations of the named spans.
func (t *tracer) durations(name string, host bool) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		if host {
			out = append(out, s.H1-s.H0)
		} else {
			out = append(out, s.V1-s.V0)
		}
	}
	return out
}

// writeSpans writes the front-end and host spans (daemon spans are only
// aggregated; there are K of them per call).
func (t *tracer) writeSpans(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if s.Daemon {
			continue
		}
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// Host process observables.

// cpuTime is this process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's peak-resident-set counter (VmHWM) at
// the current resident set, so the next peakRSS covers one rep only.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSS reads VmHWM in bytes (0 where /proc is unavailable).
func peakRSS() uint64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseUint(f[1], 10, 64)
			return kb << 10
		}
	}
	return 0
}

// CPU profile attribution.

// layers are the repository's modules, in metric order. Each profile
// sample is charged to the innermost frame that belongs to one of them:
// a launchmon/internal/<pkg> frame, or the benchmark's own code ("bench").
// Samples in GC background workers are charged to "gc"; samples with no
// such frame (scheduler, syscalls) to "runtime"; internal packages not
// listed to "other".
var layers = []string{
	"vtime", "simnet", "cluster", "rm_slurm", "engine", "lmonp", "proctab",
	"coll", "iccl", "core", "obs", "gc", "other", "runtime", "bench",
}

var gcWorkers = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
}

const internalPrefix = "launchmon/internal/"

// layerOf names the layer a function belongs to, or "" if none.
func layerOf(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "[("); i >= 0 {
		rest = rest[:i] // generic shapes and receivers may hold other paths
	}
	slash := strings.LastIndex(rest, "/") + 1
	dot := strings.Index(rest[slash:], ".")
	if dot < 0 {
		return "other"
	}
	pkg := strings.ReplaceAll(rest[:slash+dot], "/", "_")
	for _, l := range layers {
		if l == pkg {
			return pkg
		}
	}
	return "other"
}

// attribute charges every sample's CPU time of the given gzipped pprof
// profiles to a layer and returns each layer's share plus the sample count.
func attribute(profiles [][]byte) (map[string]float64, int, error) {
	cost := make(map[string]float64)
	var total float64
	samples := 0
	for _, raw := range profiles {
		p, err := parseProfile(raw)
		if err != nil {
			return nil, 0, err
		}
		for _, s := range p.samples {
			v := float64(s.values[len(s.values)-1])
			layer := "runtime"
		walk:
			for _, loc := range s.locs {
				for _, fn := range p.locFuncs[loc] {
					name := p.funcNames[fn]
					if gcWorkers[name] {
						layer = "gc"
						break walk
					}
					if l := layerOf(name); l != "" {
						layer = l
						break walk
					}
				}
			}
			cost[layer] += v
			total += v
			samples++
		}
	}
	frac := make(map[string]float64, len(layers))
	for _, l := range layers {
		if total > 0 {
			frac[l] = cost[l] / total
		}
	}
	return frac, samples, nil
}

// A minimal decoder for the pprof protobuf format (profile.proto): only
// samples, locations, functions and the string table are read.

type profSample struct {
	locs   []uint64 // leaf first
	values []int64
}

type profile struct {
	samples   []profSample
	locFuncs  map[uint64][]uint64 // location id → function ids, innermost first
	funcNames map[uint64]string
}

var errProto = errors.New("malformed profile")

type protoBuf struct{ b []byte }

func (p *protoBuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errProto
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errProto
}

// next returns the next field's number, wire type, and (for varints) its
// value or (for length-delimited fields) its bytes.
func (p *protoBuf) next() (field int, wire int, v uint64, data []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	field, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v, err = p.varint()
	case 1, 5:
		n := 8
		if wire == 5 {
			n = 4
		}
		if len(p.b) < n {
			return 0, 0, 0, nil, errProto
		}
		p.b = p.b[n:]
	case 2:
		var n uint64
		if n, err = p.varint(); err == nil {
			if n > uint64(len(p.b)) {
				return 0, 0, 0, nil, errProto
			}
			data, p.b = p.b[:n], p.b[n:]
		}
	default:
		err = errProto
	}
	return field, wire, v, data, err
}

// uints appends a repeated integer field, packed or not.
func uints(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	pb := protoBuf{data}
	for len(pb.b) > 0 {
		x, err := pb.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

func parseProfile(raw []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	body, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]string{}}
	funcStr := map[uint64]uint64{}
	var strs []string
	pb := protoBuf{body}
	for len(pb.b) > 0 {
		field, _, _, data, err := pb.next()
		if err != nil {
			return nil, err
		}
		switch field {
		case 2: // Sample
			var s profSample
			sb := protoBuf{data}
			for len(sb.b) > 0 {
				f, w, v, d, err := sb.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					s.locs, err = uints(s.locs, w, v, d)
				case 2:
					var vals []uint64
					vals, err = uints(nil, w, v, d)
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				if err != nil {
					return nil, err
				}
			}
			if len(s.values) > 0 {
				p.samples = append(p.samples, s)
			}
		case 4: // Location
			var id uint64
			var fns []uint64
			lb := protoBuf{data}
			for len(lb.b) > 0 {
				f, _, v, d, err := lb.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 4: // Line
					ln := protoBuf{d}
					for len(ln.b) > 0 {
						lf, _, lv, _, err := ln.next()
						if err != nil {
							return nil, err
						}
						if lf == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			p.locFuncs[id] = fns
		case 5: // Function
			var id, name uint64
			fb := protoBuf{data}
			for len(fb.b) > 0 {
				f, _, v, _, err := fb.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcStr[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}
	for id, si := range funcStr {
		if si >= uint64(len(strs)) {
			return nil, errProto
		}
		p.funcNames[id] = strs[si]
	}
	return p, nil
}

// median of a sample (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile of ds (0 for none).
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}
