package health

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/iccl"
	"launchmon/internal/lmonp"
	"launchmon/internal/vtime"
)

// healthNet is a running heartbeat rig: mons[r] is rank r's monitor once
// it started, rootCh yields the root's.
type healthNet struct {
	sim    *vtime.Sim
	cl     *cluster.Cluster
	rootCh *vtime.Chan[*Monitor]
	mons   []*Monitor
	stop   func()
}

// healthRig boots n "daemon" processes (one per compute node) that each
// join an ICCL tree, share its links and start a monitor on them. stop
// halts every monitor and releases the daemons so the simulation can
// quiesce (monitors do not cascade a stop down the shared links).
func healthRig(t *testing.T, n, fanout int, period time.Duration, miss int) *healthNet {
	t.Helper()
	sim := vtime.New()
	cl, err := cluster.New(sim, cluster.Options{Nodes: n})
	if err != nil {
		t.Fatal(err)
	}
	nodelist := make([]string, n)
	for i := 0; i < n; i++ {
		nodelist[i] = cl.Node(i).Name()
	}
	rootCh := vtime.NewChan[*Monitor](sim)
	release := vtime.NewChan[int](sim)
	mons := make([]*Monitor, n)
	for i := 0; i < n; i++ {
		i := i
		if _, err := cl.Node(i).SpawnSystemProc(cluster.Spec{
			Exe: fmt.Sprintf("hd%d", i),
			Main: func(p *cluster.Proc) {
				c, err := iccl.Bootstrap(p, iccl.Config{
					Rank: i, Size: n, Fanout: fanout, Nodelist: nodelist, Port: 59000,
				})
				if err != nil {
					t.Errorf("rank %d: %v", i, err)
					return
				}
				defer c.Close()
				parent, children := c.ShareLinks()
				m, err := StartOnLinks(p, Config{
					Rank: i, Size: n, Fanout: fanout, Period: period, Miss: miss,
				}, parent, children)
				if err != nil {
					t.Errorf("rank %d: %v", i, err)
					return
				}
				mons[i] = m
				if i == 0 {
					rootCh.Send(m)
				}
				// Daemons park here; their monitors do the work. Node death
				// or the rig's stop ends them.
				release.Recv()
			},
		}); err != nil {
			t.Fatal(err)
		}
	}
	stop := func() {
		for _, m := range mons {
			if m != nil {
				m.Stop()
			}
		}
		release.Close()
	}
	return &healthNet{sim: sim, cl: cl, rootCh: rootCh, mons: mons, stop: stop}
}

func TestSeveredNodeDetectedFast(t *testing.T) {
	const n = 8
	period := 200 * time.Millisecond
	hn := healthRig(t, n, 0, period, 3)
	sim, cl := hn.sim, hn.cl
	var report Report
	var latency time.Duration
	sim.Go("driver", func() {
		root, ok := hn.rootCh.Recv()
		if !ok {
			t.Error("no root monitor")
			return
		}
		sim.Sleep(1 * time.Second) // steady state
		killAt := sim.Now()
		cl.KillNode(5)
		r, ok := root.Failures().Recv()
		if !ok {
			t.Error("failure stream closed early")
			return
		}
		report, latency = r, sim.Now()-killAt
		hn.stop()
	})
	sim.Run()
	if report.Rank != 5 {
		t.Errorf("reported rank %d, want 5", report.Rank)
	}
	if report.Detail != "connection severed" {
		t.Errorf("detail %q", report.Detail)
	}
	// Sever detection is the fast path: well under one period.
	if latency > period {
		t.Errorf("detection took %v with period %v", latency, period)
	}
}

func TestSilentLinkDropDetectedWithinDeadline(t *testing.T) {
	const n = 4
	period := 100 * time.Millisecond
	const miss = 3
	hn := healthRig(t, n, 0, period, miss)
	sim, cl := hn.sim, hn.cl
	var report Report
	var latency time.Duration
	sim.Go("driver", func() {
		root, ok := hn.rootCh.Recv()
		if !ok {
			t.Error("no root monitor")
			return
		}
		sim.Sleep(1 * time.Second)
		dropAt := sim.Now()
		// Rank 2's beats vanish silently; only the miss threshold can see it.
		cl.Net().DropLink(cl.Node(0).Name(), cl.Node(2).Name())
		r, ok := root.Failures().Recv()
		if !ok {
			t.Error("failure stream closed early")
			return
		}
		report, latency = r, sim.Now()-dropAt
		hn.stop()
	})
	sim.Run()
	if report.Rank != 2 {
		t.Errorf("reported rank %d, want 2", report.Rank)
	}
	if report.Detail != "heartbeat timeout" {
		t.Errorf("detail %q", report.Detail)
	}
	deadline := time.Duration(miss+1) * period
	if latency > deadline {
		t.Errorf("silent failure detected after %v, deadline %v", latency, deadline)
	}
	if latency < time.Duration(miss)*period-period {
		t.Errorf("silent failure detected implausibly fast: %v", latency)
	}
}

func TestInteriorDeathReportsSubtreeUnreachable(t *testing.T) {
	// Fanout 2 over 7 ranks: rank 1's subtree is {1, 3, 4}.
	const n = 7
	hn := healthRig(t, n, 2, 100*time.Millisecond, 3)
	sim, cl := hn.sim, hn.cl
	got := map[int]string{}
	sim.Go("driver", func() {
		root, ok := hn.rootCh.Recv()
		if !ok {
			t.Error("no root monitor")
			return
		}
		sim.Sleep(1 * time.Second)
		cl.KillNode(1)
		for len(got) < 3 {
			r, ok := root.Failures().Recv()
			if !ok {
				t.Error("failure stream closed early")
				return
			}
			got[r.Rank] = r.Detail
		}
		hn.stop()
	})
	sim.Run()
	if got[1] != "connection severed" {
		t.Errorf("rank 1 detail %q", got[1])
	}
	for _, r := range []int{3, 4} {
		if got[r] != "unreachable" {
			t.Errorf("rank %d detail %q, want unreachable", r, got[r])
		}
	}
}

func TestParentLinkDeathStopsMonitor(t *testing.T) {
	// Fanout 2 over 7 ranks: ranks 3 and 4 sit under rank 1. When rank 1's
	// node dies their shared parent links sever, and their monitors must
	// stop beating into the dead link — while the rest of the tree keeps
	// running.
	const n = 7
	hn := healthRig(t, n, 2, 100*time.Millisecond, 3)
	var orphans, alive []bool
	hn.sim.Go("driver", func() {
		if _, ok := hn.rootCh.Recv(); !ok {
			t.Error("no root monitor")
			return
		}
		hn.sim.Sleep(1 * time.Second)
		hn.cl.KillNode(1)
		hn.sim.Sleep(1 * time.Second)
		for _, r := range []int{3, 4} {
			orphans = append(orphans, hn.mons[r].halted())
		}
		for _, r := range []int{0, 2, 5, 6} {
			alive = append(alive, !hn.mons[r].halted())
		}
		hn.stop()
	})
	end := hn.sim.Run()
	for i, stopped := range orphans {
		if !stopped {
			t.Errorf("orphan %d's monitor still running after its parent link died", i)
		}
	}
	for i, ok := range alive {
		if !ok {
			t.Errorf("surviving monitor %d stopped", i)
		}
	}
	if end > time.Hour {
		t.Errorf("simulation ran to %v; monitors did not wind down", end)
	}
}

func TestEventCodecRoundTrip(t *testing.T) {
	for _, ev := range []Event{
		{Kind: EvDaemonsSpawned, Rank: -1, Detail: ""},
		{Kind: EvJobExited, Rank: -1, Code: 137, Detail: "killed"},
		{Kind: EvDaemonExited, Rank: 42, Detail: "connection severed"},
		{Kind: EvSessionTornDown, Rank: -1, Detail: "watchdog"},
	} {
		got, err := DecodeEvent(EncodeEvent(ev))
		if err != nil {
			t.Fatalf("%v: %v", ev, err)
		}
		if got != ev {
			t.Errorf("round trip: got %+v want %+v", got, ev)
		}
	}
	if _, err := DecodeEvent([]byte{1, 2}); err == nil {
		t.Error("truncated event decoded")
	}
}

func TestDecodeReportsRejectsImpossibleCount(t *testing.T) {
	// A forged count must fail on the remaining-bytes guard before it
	// sizes a slice: 0x7fffffff reports would ask for ~50 GB.
	for _, b := range [][]byte{
		{0x7f, 0xff, 0xff, 0xff},
		append(lmonp.AppendUint32(nil, 2), make([]byte, 15)...), // 2 reports need ≥ 16 bytes
	} {
		if _, err := decodeReports(lmonp.NewReader(b)); !errors.Is(err, lmonp.ErrTruncated) {
			t.Errorf("decodeReports(% x): got %v, want ErrTruncated", b, err)
		}
	}
}

// FuzzDecodeReports drives the failure-report decoder with arbitrary
// payloads: it must never panic or over-allocate, and whatever it accepts
// re-encodes to exactly the bytes it consumed.
func FuzzDecodeReports(f *testing.F) {
	f.Add(encodeReports(nil, []Report{{Rank: 3, Detail: "connection severed"}, {Rank: 7, Detail: "unreachable"}}))
	f.Add(encodeReports(nil, nil))
	f.Add([]byte{0x7f, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, b []byte) {
		reports, err := decodeReports(lmonp.NewReader(b))
		if err != nil {
			return
		}
		if enc := encodeReports(nil, reports); !bytes.HasPrefix(b, enc) {
			t.Fatalf("decoded %d reports re-encode to % x, input % x", len(reports), enc, b)
		}
	})
}
