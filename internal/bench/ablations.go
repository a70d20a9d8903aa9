package bench

import (
	"fmt"
	"io"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/core"
	"launchmon/internal/engine"
	"launchmon/internal/perfmodel"
	"launchmon/internal/rm"
	"launchmon/internal/rm/alps"
	"launchmon/internal/rm/bgl"
	"launchmon/internal/rm/slurm"
	"launchmon/internal/vtime"
)

// This file holds the ablation benchmarks for design decisions the paper
// calls out (DESIGN.md §4): the BG/L RM cost contrast (§4's closing
// observation), ICCL tree fan-out, user-data piggybacking, RPDTAB
// distribution mechanism, and RM debug-event scaling.

// BGLRow compares launchAndSpawn on the SLURM-like and BG/L-like RMs.
type BGLRow struct {
	RM       string
	Measured perfmodel.Breakdown
}

// BGLAblation measures launchAndSpawn at 64 nodes across the three RM
// implementations, reproducing the paper's note that BG/L's
// T(job)/T(daemon) dominate while LaunchMON's own costs stay put — and
// extending it with the ALPS-like star launcher.
func BGLAblation() ([]BGLRow, error) {
	const nodes, tpd = 64, 8
	measure := func(which string, install func(cl *cluster.Cluster) (rm.Manager, error)) (perfmodel.Breakdown, error) {
		sim := vtime.New()
		cl, err := cluster.New(sim, cluster.Options{Nodes: nodes})
		if err != nil {
			return perfmodel.Breakdown{}, err
		}
		mgr, err := install(cl)
		if err != nil {
			return perfmodel.Breakdown{}, err
		}
		core.Setup(cl, mgr)
		registerNoopBE(cl, "abl_be")
		var b perfmodel.Breakdown
		var ferr error
		sim.Go("abl-fe", func() {
			cl.FrontEnd().SpawnProc(cluster.Spec{Exe: "abl_fe", Main: func(p *cluster.Proc) {
				sess, err := core.LaunchAndSpawn(p, core.Options{
					Job:    rm.JobSpec{Exe: "app", Nodes: nodes, TasksPerNode: tpd},
					Daemon: rm.DaemonSpec{Exe: "abl_be"},
				})
				if err != nil {
					ferr = err
					return
				}
				b, ferr = perfmodel.Decompose(sess.Timeline)
			}})
		})
		sim.Run()
		if ferr != nil {
			return b, fmt.Errorf("rm ablation (%s): %w", which, ferr)
		}
		return b, nil
	}
	installs := []struct {
		name    string
		install func(cl *cluster.Cluster) (rm.Manager, error)
	}{
		{"slurm", func(cl *cluster.Cluster) (rm.Manager, error) { return slurm.Install(cl, slurm.Config{}) }},
		{"bgl-mpirun", func(cl *cluster.Cluster) (rm.Manager, error) { return bgl.Install(cl) }},
		{"alps", func(cl *cluster.Cluster) (rm.Manager, error) { return alps.Install(cl, alps.Config{}) }},
	}
	var rows []BGLRow
	for _, in := range installs {
		b, err := measure(in.name, in.install)
		if err != nil {
			return nil, err
		}
		rows = append(rows, BGLRow{RM: in.name, Measured: b})
	}
	return rows, nil
}

// FanoutRow is one ICCL tree shape measurement.
type FanoutRow struct {
	Fanout     int // 0 = flat (1-deep)
	Setup      time.Duration
	Collective time.Duration
	Total      time.Duration
}

// AblationFanout measures launchAndSpawn at 128 daemons across ICCL tree
// fan-outs: flat trees concentrate the handshake at the master daemon,
// k-ary trees distribute it.
func AblationFanout() ([]FanoutRow, error) {
	const nodes, tpd = 128, 8
	var rows []FanoutRow
	for _, fanout := range []int{0, 4, 16, 32} {
		r, err := NewRig(RigOptions{Nodes: nodes})
		if err != nil {
			return nil, err
		}
		registerNoopBE(r.Cl, "abl_be")
		var b perfmodel.Breakdown
		err = r.RunFE(func(p *cluster.Proc) error {
			sess, err := core.LaunchAndSpawn(p, core.Options{
				Job:        rm.JobSpec{Exe: "app", Nodes: nodes, TasksPerNode: tpd},
				Daemon:     rm.DaemonSpec{Exe: "abl_be"},
				ICCLFanout: fanout,
			})
			if err != nil {
				return err
			}
			b, err = perfmodel.Decompose(sess.Timeline)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("fanout ablation (%d): %w", fanout, err)
		}
		rows = append(rows, FanoutRow{Fanout: fanout, Setup: b.Setup, Collective: b.Collective, Total: b.Total})
	}
	return rows, nil
}

// PiggybackRow compares delivering tool bootstrap data piggybacked on the
// handshake versus as a separate post-ready exchange.
type PiggybackRow struct {
	Mode  string
	Total time.Duration
}

// AblationPiggyback quantifies the startup saving of piggybacking tool
// data on LaunchMON's handshake (paper §3.2's pack/unpack design) against
// a separate FE→master→broadcast round after ready.
func AblationPiggyback() ([]PiggybackRow, error) {
	const nodes, tpd = 128, 8
	payload := make([]byte, 4096)
	var rows []PiggybackRow

	// Piggybacked: FEData rides the handshake and the RPDTAB broadcast.
	{
		r, err := NewRig(RigOptions{Nodes: nodes})
		if err != nil {
			return nil, err
		}
		r.Cl.Register("pig_be", func(p *cluster.Proc) {
			be, err := core.BEInit(p)
			if err != nil {
				return
			}
			if len(be.FEData()) != len(payload) {
				return
			}
			be.Finalize()
		})
		var total time.Duration
		err = r.RunFE(func(p *cluster.Proc) error {
			start := p.Sim().Now()
			_, err := core.LaunchAndSpawn(p, core.Options{
				Job:    rm.JobSpec{Exe: "app", Nodes: nodes, TasksPerNode: tpd},
				Daemon: rm.DaemonSpec{Exe: "pig_be"},
				FEData: payload,
			})
			total = p.Sim().Now() - start
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("piggyback ablation: %w", err)
		}
		rows = append(rows, PiggybackRow{Mode: "piggybacked", Total: total})
	}

	// Separate: empty handshake, then an explicit usr-data message that
	// the master broadcasts, with a confirmation gather back to the FE.
	{
		r, err := NewRig(RigOptions{Nodes: nodes})
		if err != nil {
			return nil, err
		}
		r.Cl.Register("sep_be", func(p *cluster.Proc) {
			be, err := core.BEInit(p)
			if err != nil {
				return
			}
			var data []byte
			if be.AmIMaster() {
				data, err = be.RecvFromFE()
				if err != nil {
					return
				}
			}
			if _, err := be.Broadcast(data); err != nil {
				return
			}
			if _, err := be.Gather([]byte{1}); err != nil {
				return
			}
			if be.AmIMaster() {
				be.SendToFE([]byte("ok"))
			}
			be.Finalize()
		})
		var total time.Duration
		err = r.RunFE(func(p *cluster.Proc) error {
			start := p.Sim().Now()
			sess, err := core.LaunchAndSpawn(p, core.Options{
				Job:    rm.JobSpec{Exe: "app", Nodes: nodes, TasksPerNode: tpd},
				Daemon: rm.DaemonSpec{Exe: "sep_be"},
			})
			if err != nil {
				return err
			}
			if err := sess.SendToBE(payload); err != nil {
				return err
			}
			if _, err := sess.RecvFromBE(); err != nil {
				return err
			}
			total = p.Sim().Now() - start
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("separate-exchange ablation: %w", err)
		}
		rows = append(rows, PiggybackRow{Mode: "separate", Total: total})
	}
	return rows, nil
}

// DebugEventsRow shows engine tracing cost under different RM debug-event
// behaviours.
type DebugEventsRow struct {
	Mode    string
	Daemons int
	Tracing time.Duration
}

// AblationDebugEvents contrasts a fixed-event RM (SLURM after the fix the
// paper describes) with a hypothetical RM whose debug events grow with
// scale — the pathology the LaunchMON work got fixed in SLURM.
func AblationDebugEvents() ([]DebugEventsRow, error) {
	var rows []DebugEventsRow
	for _, scale := range []int{16, 64, 128} {
		for _, mode := range []string{"fixed", "scaling"} {
			events := 11
			if mode == "scaling" {
				events = 11 + scale/2 // grows with node count
			}
			r, err := NewRig(RigOptions{
				Nodes: scale,
				Slurm: slurm.Config{DebugEvents: events},
			})
			if err != nil {
				return nil, err
			}
			registerNoopBE(r.Cl, "dbg_be")
			var tracing time.Duration
			err = r.RunFE(func(p *cluster.Proc) error {
				sess, err := core.LaunchAndSpawn(p, core.Options{
					Job:    rm.JobSpec{Exe: "app", Nodes: scale, TasksPerNode: 8},
					Daemon: rm.DaemonSpec{Exe: "dbg_be"},
				})
				if err != nil {
					return err
				}
				tracing, _ = sess.Timeline.Get(engine.MarkTracing)
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("debug-events ablation: %w", err)
			}
			rows = append(rows, DebugEventsRow{Mode: mode, Daemons: scale, Tracing: tracing})
		}
	}
	return rows, nil
}

// PrintBGL renders the RM cost-profile ablation.
func PrintBGL(w io.Writer, rows []BGLRow) {
	fmt.Fprintln(w, "Ablation — RM cost profile (64 daemons, 8 tasks/daemon)")
	fmt.Fprintln(w, "rm           T(job)    T(daemon) tracing   total")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %8.3fs %8.3fs %8.3fs %8.3fs\n", r.RM,
			r.Measured.Job.Seconds(), r.Measured.DaemonSpawn.Seconds(),
			r.Measured.Tracing.Seconds(), r.Measured.Total.Seconds())
	}
}

// PrintFanout renders the ICCL fan-out ablation.
func PrintFanout(w io.Writer, rows []FanoutRow) {
	fmt.Fprintln(w, "Ablation — ICCL fan-out (128 daemons)")
	fmt.Fprintln(w, "fanout    setup     collective total")
	for _, r := range rows {
		name := fmt.Sprint(r.Fanout)
		if r.Fanout == 0 {
			name = "flat"
		}
		fmt.Fprintf(w, "%-9s %8.3fs %8.3fs %8.3fs\n", name, r.Setup.Seconds(), r.Collective.Seconds(), r.Total.Seconds())
	}
}

// PrintPiggyback renders the tool-data piggybacking ablation.
func PrintPiggyback(w io.Writer, rows []PiggybackRow) {
	fmt.Fprintln(w, "Ablation — tool data piggybacking (128 daemons, 4 KiB payload)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %8.3fs\n", r.Mode, r.Total.Seconds())
	}
}

// PrintDebugEvents renders the RM debug-event scaling ablation.
func PrintDebugEvents(w io.Writer, rows []DebugEventsRow) {
	fmt.Fprintln(w, "Ablation — RM debug-event scaling (engine tracing cost)")
	fmt.Fprintln(w, "mode     daemons  tracing")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %7d %8.3fs\n", r.Mode, r.Daemons, r.Tracing.Seconds())
	}
}
