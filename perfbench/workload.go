package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/coll"
	"launchmon/internal/core"
	"launchmon/internal/dpcl"
	"launchmon/internal/engine"
	"launchmon/internal/proctab"
	"launchmon/internal/rm"
	"launchmon/internal/rm/slurm"
	"launchmon/internal/rsh"
	"launchmon/internal/tbon"
	"launchmon/internal/tools/jobsnap"
	"launchmon/internal/tools/oss"
	"launchmon/internal/tools/stat"
	"launchmon/internal/vtime"
)

// component is one closed-loop tool client: it sends a query to its
// fabric's daemons, waits for the merged response, checks it, and only
// then sends the next query.
type component struct {
	name   string
	mw     bool // middleware fabric (else back-end)
	tagged bool // Session.AllocTag streams (else the lockstep plane)
	reduce bool // responses folded with the "sum" filter (else gathered)
	rounds int
}

// workload is one session shape: a back-end launch of daemons×tasks, a
// middleware launch of mwDaemons, then the tool components running
// concurrently. Every workload runs every phase so that every end-to-end
// metric has a value on every workload; the sizes decide which phase
// dominates the host cost.
type workload struct {
	name      string
	lean      bool // rig without rsh/dpcl/tools (the million-daemon rig)
	daemons   int
	tasks     int // tasks per daemon node
	fanout    int // back-end ICCL tree fanout
	mwDaemons int
	mwFanout  int
	seeded    bool // tool inputs drawn from --seed (else fixed)
	payloadB  int  // mean per-rank response bytes
	comps     []component
}

// mwProbe is the launch workloads' tool: one client sampling the
// middleware tree. It is small enough that the launch dominates the run,
// and long enough (100 round trips) for a p90 with ten samples beyond it.
var mwProbe = []component{{name: "mw-lockstep-gather", mw: true, rounds: 100}}

var workloads = []workload{
	{
		name: "launch_wide", lean: true,
		daemons: 16384, tasks: 1, fanout: 64,
		mwDaemons: 8, mwFanout: 4, payloadB: 256, comps: mwProbe,
	},
	{
		name:    "launch_dense",
		daemons: 1024, tasks: 128, fanout: 32,
		mwDaemons: 8, mwFanout: 4, payloadB: 256, comps: mwProbe,
	},
	{
		name:    "tool_traffic",
		daemons: 1024, tasks: 1, fanout: 32,
		mwDaemons: 64, mwFanout: 8, seeded: true, payloadB: 256,
		comps: []component{
			{name: "be-lockstep-gather", rounds: 30},
			{name: "be-tagged-gather", tagged: true, rounds: 30},
			{name: "be-tagged-reduce", tagged: true, reduce: true, rounds: 30},
			{name: "mw-tagged-gather", mw: true, tagged: true, rounds: 30},
		},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// fixedInputSeed generates the launch workloads' probe inputs: they take
// no random input, so every run of them is the same simulation.
const fixedInputSeed = 1

// inputs are a workload's generated tool traffic: per component, one
// query per round and one response body per daemon rank, plus the stream
// tags of tagged components in Session.AllocTag order.
type inputs struct {
	queries  [][][]byte    // [component][round]; the first 8 bytes are a nonce
	payloads [][][]byte    // [component][rank]
	tags     [][][2]uint32 // [component][round] = {query tag, response tag}
}

func makeInputs(w workload, seed int64) inputs {
	if !w.seeded {
		seed = fixedInputSeed
	}
	rng := rand.New(rand.NewSource(seed))
	in := inputs{
		queries:  make([][][]byte, len(w.comps)),
		payloads: make([][][]byte, len(w.comps)),
		tags:     make([][][2]uint32, len(w.comps)),
	}
	next := coll.MinUserTag
	for ci, c := range w.comps {
		for r := 0; r < c.rounds; r++ {
			q := make([]byte, 8+16+rng.Intn(49))
			rng.Read(q)
			in.queries[ci] = append(in.queries[ci], q)
		}
		if !c.reduce {
			n := w.daemons
			if c.mw {
				n = w.mwDaemons
			}
			for rank := 0; rank < n; rank++ {
				b := make([]byte, w.payloadB-w.payloadB/8+rng.Intn(w.payloadB/4+1))
				rng.Read(b)
				in.payloads[ci] = append(in.payloads[ci], b)
			}
		}
		in.tags[ci] = make([][2]uint32, c.rounds)
		if c.tagged {
			for r := range in.tags[ci] {
				in.tags[ci][r] = [2]uint32{next, next + 1}
				next += 2
			}
		}
	}
	return in
}

// response is what daemon rank answers to query: the query's nonce
// followed by the rank's payload, so a response to a stale or foreign
// query fails the front end's check.
func (in *inputs) response(ci, rank int, query []byte) []byte {
	out := make([]byte, 0, 8+len(in.payloads[ci][rank]))
	out = append(out, query[:8]...)
	return append(out, in.payloads[ci][rank]...)
}

// rig is one booted simulated cluster.
type rig struct {
	sim *vtime.Sim
	cl  *cluster.Cluster
}

// bootRig builds the cluster, RM and LaunchMON (plus, on a full rig, the
// rsh/dpcl services and tool registrations the paper's experiments
// install), timing each piece as a span.
func bootRig(w workload, tr *tracer) (*rig, error) {
	sp := tr.hostSpan("rig.cluster")
	sim := vtime.New()
	cl, err := cluster.New(sim, cluster.Options{Nodes: w.daemons + w.mwDaemons})
	tr.endHost(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.hostSpan("rig.slurm")
	mgr, err := slurm.Install(cl, slurm.Config{})
	tr.endHost(sp)
	if err != nil {
		return nil, err
	}
	if !w.lean {
		sp = tr.hostSpan("rig.services")
		if _, err := rsh.Install(cl, rsh.Config{}); err != nil {
			return nil, err
		}
		if _, err := dpcl.Install(cl, dpcl.Config{}); err != nil {
			return nil, err
		}
		tr.endHost(sp)
	}
	sp = tr.hostSpan("rig.core")
	core.SetupWithEngineConfig(cl, mgr, engine.Config{})
	if !w.lean {
		jobsnap.Install(cl)
		stat.Install(cl, tbon.Config{})
		oss.Install(cl)
	}
	tr.endHost(sp)
	return &rig{sim: sim, cl: cl}, nil
}

// rep is one simulated session of a workload: the state its front end
// and daemon mains share, and what they measured.
type rep struct {
	w   workload
	in  inputs
	tr  *tracer // nil on plain reps
	obs bool    // session obs plane on
	rg  *rig

	hostStart time.Time
	cpuStart  time.Duration

	mu        sync.Mutex // guards the fields below (written from simulated goroutines)
	attempted int
	failed    int
	errs      []string
	rt        [][]time.Duration // [component] query sent → merged response, per round
	checkHost time.Duration     // host time spent in inline response checks

	// Filled by the front end when its last tool round trip completes.
	wall, cpu      time.Duration
	ready, mwReady time.Duration
	loop           time.Duration // first query sent → last response merged (virtual)
	wireBytes      int64
	rss            uint64 // peak resident bytes over the interval
	sess           *core.Session
}

func (rp *rep) fail(format string, args ...any) {
	rp.mu.Lock()
	rp.failed++
	rp.errs = append(rp.errs, fmt.Sprintf(format, args...))
	rp.mu.Unlock()
}

func (rp *rep) attempt(n int) {
	rp.mu.Lock()
	rp.attempted += n
	rp.mu.Unlock()
}

// run registers the daemon mains, drives the simulation, and returns once
// every simulated goroutine has finished.
func (rp *rep) run() {
	rp.rg.cl.Register("pb_be", rp.beMain)
	rp.rg.cl.Register("pb_mw", rp.mwMain)
	rp.tr.begin(rp.rg.sim)
	rp.hostStart, rp.cpuStart = time.Now(), cpuTime()
	rp.rg.sim.Go("pb-fe-boot", func() {
		if _, err := rp.rg.cl.FrontEnd().SpawnProc(cluster.Spec{Exe: "pb_fe", Main: rp.feMain}); err != nil {
			rp.fail("spawn front end: %v", err)
		}
	})
	rp.rg.sim.Run()
	rp.tr.endInterval() // when the front end failed before the interval ended
}

func (rp *rep) feMain(p *cluster.Proc) {
	w, sim := rp.w, p.Sim()
	obsMode := core.ObsDefault
	if rp.obs {
		obsMode = core.ObsOn
	}
	rp.attempt(1)
	sp := rp.tr.span(sim, span{Name: "core.LaunchAndSpawn"})
	sess, err := core.LaunchAndSpawn(p, core.Options{
		Job:        rm.JobSpec{Exe: "app", Nodes: w.daemons, TasksPerNode: w.tasks},
		Daemon:     rm.DaemonSpec{Exe: "pb_be"},
		ICCLFanout: w.fanout,
		SeedMode:   core.SeedCutThrough,
		TableMode:  core.TableSliced,
		Obs:        obsMode,
	})
	rp.tr.end(sim, sp)
	if err != nil {
		rp.fail("LaunchAndSpawn: %v", err)
		return
	}
	rp.sess = sess
	rp.attempt(1)
	sp = rp.tr.span(sim, span{Name: "core.LaunchMW"})
	_, err = sess.LaunchMW(core.MWOptions{
		Nodes:      w.mwDaemons,
		Daemon:     rm.DaemonSpec{Exe: "pb_mw"},
		ICCLFanout: w.mwFanout,
	})
	rp.tr.end(sim, sp)
	if err != nil {
		rp.fail("LaunchMW: %v", err)
		return
	}
	rp.ready = sess.Timeline.Between(engine.MarkE0, engine.MarkE11)
	rp.mwReady = sess.Timeline.Between(engine.MarkMW7, engine.MarkMW10)
	for ci := range w.comps {
		for r := range rp.in.tags[ci] {
			want := rp.in.tags[ci][r]
			if want[0] == 0 {
				continue
			}
			if got := [2]uint32{sess.AllocTag(), sess.AllocTag()}; got != want {
				rp.fail("AllocTag returned %v, daemons expect %v", got, want)
				return
			}
		}
	}

	rp.rt = make([][]time.Duration, len(w.comps))
	loopStart := sim.Now()
	tools := rp.tr.span(sim, span{Name: "fe.tools"})
	done := vtime.NewChan[struct{}](sim)
	for ci := range w.comps {
		ci := ci
		sim.Go("pb-tool-"+w.comps[ci].name, func() {
			rp.feComponent(sim, sess, ci, tools)
			done.Send(struct{}{})
		})
	}
	for range w.comps {
		done.Recv()
	}
	rp.tr.end(sim, tools)
	rp.loop = sim.Now() - loopStart
	rp.wireBytes = rp.rg.cl.Net().Stats().Bytes
	rp.wall, rp.cpu = time.Since(rp.hostStart), cpuTime()-rp.cpuStart
	rp.rss = peakRSS()
	rp.tr.endInterval()

	// Outside the measured interval: the union of every daemon's rank
	// slice must be byte-identical to the front end's table. The daemons
	// hold their slices and their finalize until this broadcast, so no
	// verification traffic overlaps the interval.
	rp.attempt(1)
	if err := sess.Broadcast(endOfLoop); err != nil {
		rp.fail("end-of-loop broadcast: %v", err)
		return
	}
	if err := sess.MWBroadcast(endOfLoop); err != nil {
		rp.fail("end-of-loop MW broadcast: %v", err)
		return
	}
	slices, err := sess.Gather()
	if err != nil {
		rp.fail("verification gather: %v", err)
		return
	}
	if err := checkSliceUnion(slices, sess.Proctab(), w.daemons); err != nil {
		rp.fail("%v", err)
	}
	if rp.obs {
		rp.tr.awaitHarvests(rp, sim, sess)
	}
}

// feComponent runs one tool client's closed loop.
func (rp *rep) feComponent(sim *vtime.Sim, sess *core.Session, ci, parent int) {
	c := rp.w.comps[ci]
	n := rp.w.daemons
	if c.mw {
		n = rp.w.mwDaemons
	}
	for r := 0; r < c.rounds; r++ {
		rp.attempt(1)
		q, tags := rp.in.queries[ci][r], rp.in.tags[ci][r]
		t0 := sim.Now()
		sp := rp.tr.span(sim, span{Name: "fe.broadcast", Parent: parent, Tool: c.name, Round: r})
		var err error
		switch {
		case c.mw && c.tagged:
			err = sess.MWBroadcastTag(tags[0], q)
		case c.mw:
			err = sess.MWBroadcast(q)
		case c.tagged:
			err = sess.BroadcastTag(tags[0], q)
		default:
			err = sess.Broadcast(q)
		}
		rp.tr.end(sim, sp)
		if err != nil {
			rp.fail("%s round %d broadcast: %v", c.name, r, err)
			return
		}
		sp = rp.tr.span(sim, span{Name: "fe.collect", Parent: parent, Tool: c.name, Round: r})
		var all [][]byte
		var sum []byte
		switch {
		case c.reduce && c.mw && c.tagged:
			sum, err = sess.MWReduceTag(tags[1])
		case c.reduce && c.mw:
			sum, err = sess.MWReduce()
		case c.reduce && c.tagged:
			sum, err = sess.ReduceTag(tags[1])
		case c.reduce:
			sum, err = sess.Reduce()
		case c.mw && c.tagged:
			all, err = sess.MWGatherTag(tags[1])
		case c.mw:
			all, err = sess.MWGather()
		case c.tagged:
			all, err = sess.GatherTag(tags[1])
		default:
			all, err = sess.Gather()
		}
		rp.tr.end(sim, sp)
		rt := sim.Now() - t0
		if err != nil {
			rp.fail("%s round %d collect: %v", c.name, r, err)
			return
		}
		h0 := time.Now()
		if c.reduce {
			err = checkSum(sum, n)
		} else {
			err = rp.checkGather(ci, q, all, n)
		}
		rp.mu.Lock()
		rp.checkHost += time.Since(h0)
		rp.rt[ci] = append(rp.rt[ci], rt)
		rp.mu.Unlock()
		if err != nil {
			rp.fail("%s round %d: %v", c.name, r, err)
		}
	}
}

// endOfLoop is the front end's signal, after its last tool round trip,
// for the daemons to verify and finalize.
var endOfLoop = []byte("end of tool loop")

func (rp *rep) checkGather(ci int, q []byte, all [][]byte, n int) error {
	if len(all) != n {
		return fmt.Errorf("gather returned %d of %d contributions", len(all), n)
	}
	for rank, got := range all {
		if len(got) < 8 || !bytes.Equal(got[:8], q[:8]) || !bytes.Equal(got[8:], rp.in.payloads[ci][rank]) {
			return fmt.Errorf("rank %d contributed %d wrong bytes", rank, len(got))
		}
	}
	return nil
}

func checkSum(sum []byte, n int) error {
	if len(sum) != 8 || binary.BigEndian.Uint64(sum) != uint64(n) {
		return fmt.Errorf("sum reduce returned %x, want %d", sum, n)
	}
	return nil
}

// checkSliceUnion verifies the gathered per-daemon rank slices against the
// front end's RPDTAB.
func checkSliceUnion(slices [][]byte, feTab proctab.Table, daemons int) error {
	if len(slices) != daemons {
		return fmt.Errorf("slice gather returned %d of %d daemons", len(slices), daemons)
	}
	var union proctab.Table
	for rank, raw := range slices {
		t, err := proctab.Decode(raw)
		if err != nil {
			return fmt.Errorf("rank %d slice: %v", rank, err)
		}
		union = append(union, t...)
	}
	want := append(proctab.Table(nil), feTab...)
	want.SortByRank()
	union.SortByRank()
	if !bytes.Equal(union.Encode(), want.Encode()) {
		return fmt.Errorf("slice union (%d entries) differs from the front end's table (%d entries)", len(union), len(want))
	}
	return nil
}

// The daemon mains return on any error: a daemon that stops contributing
// fails the front end's pending collective, which counts the failure.

func (rp *rep) beMain(p *cluster.Proc) {
	sim := p.Sim()
	sp := rp.tr.span(sim, span{Name: "daemon.BEInit", Daemon: true})
	be, err := core.BEInit(p)
	rp.tr.end(sim, sp)
	if err != nil {
		return
	}
	rp.daemonComponents(sim, be.Collective(), be.Rank(), false)
	if _, err := be.Collective().Broadcast(); err != nil {
		return
	}
	be.Collective().Gather(be.MyProctab().Encode())
	be.Finalize()
}

func (rp *rep) mwMain(p *cluster.Proc) {
	sim := p.Sim()
	sp := rp.tr.span(sim, span{Name: "daemon.MWInit", Daemon: true})
	mw, err := core.MWInit(p)
	rp.tr.end(sim, sp)
	if err != nil {
		return
	}
	rank, _ := mw.Personality()
	rp.daemonComponents(sim, mw.Collective(), rank, true)
	if _, err := mw.Collective().Broadcast(); err != nil {
		return
	}
	mw.Finalize()
}

// daemonComponents runs this daemon's side of every component on its
// fabric, each in its own simulated goroutine, and waits for them.
func (rp *rep) daemonComponents(sim *vtime.Sim, dc *core.DaemonCollective, rank int, mw bool) {
	done := vtime.NewChan[struct{}](sim)
	n := 0
	for ci, c := range rp.w.comps {
		if c.mw != mw {
			continue
		}
		n++
		ci := ci
		sim.Go("pb-daemon-"+c.name, func() {
			rp.daemonComponent(sim, dc, ci, rank)
			done.Send(struct{}{})
		})
	}
	for i := 0; i < n; i++ {
		done.Recv()
	}
}

func (rp *rep) daemonComponent(sim *vtime.Sim, dc *core.DaemonCollective, ci, rank int) {
	c := rp.w.comps[ci]
	for r := 0; r < c.rounds; r++ {
		tags := rp.in.tags[ci][r]
		sp := rp.tr.span(sim, span{Name: "daemon.broadcast", Daemon: true, Tool: c.name, Round: r})
		var q []byte
		var err error
		if c.tagged {
			q, err = dc.BroadcastTag(tags[0])
		} else {
			q, err = dc.Broadcast()
		}
		rp.tr.end(sim, sp)
		if err != nil {
			return
		}
		// A daemon that received the wrong query answers with nothing, so
		// the front end's check of this round fails.
		ok := bytes.Equal(q, rp.in.queries[ci][r])
		sp = rp.tr.span(sim, span{Name: "daemon.collect", Daemon: true, Tool: c.name, Round: r})
		if c.reduce {
			var word [8]byte
			if ok {
				binary.BigEndian.PutUint64(word[:], 1)
			}
			if c.tagged {
				err = dc.ReduceTag(tags[1], word[:], "sum")
			} else {
				err = dc.Reduce(word[:], "sum")
			}
		} else {
			var mine []byte
			if ok {
				mine = rp.in.response(ci, rank, q)
			}
			if c.tagged {
				err = dc.GatherTag(tags[1], mine)
			} else {
				err = dc.Gather(mine)
			}
		}
		rp.tr.end(sim, sp)
		if err != nil {
			return
		}
	}
}
