package bench

import (
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"time"
)

// The experiment table: every experiment of the evaluation — the paper's
// figures and table, the ablations, the sweeps and the trace export — is
// declared once here, with its JSON stems, its full and smoke options and
// scales, its printers and its checks. cmd/lmonbench derives its
// selector flags, -all, -smoke, -maxk and -json from this table, and the
// repository-root benchmarks run the same entries, so every lmonbench
// run and every benchmark enforces the same checks.

// Mode is what one run asks of an experiment.
type Mode struct {
	Smoke bool   // use the experiment's reduced smoke options and scales
	MaxK  int    // cap on daemon-count sweeps (0 = full scale); see Scales
	Mem   bool   // also print the per-role peak RPDTAB memory table
	Obs   bool   // add the observability rider to the launch sweep
	File  string // output path of an experiment selected by a FILE flag
}

// Scales applies the -maxk rule to a daemon-count sweep: counts above
// MaxK are dropped, and a sweep left empty runs the single point K=MaxK.
func (m Mode) Scales(scales []int) []int {
	if m.MaxK <= 0 {
		return scales
	}
	var out []int
	for _, k := range scales {
		if k <= m.MaxK {
			out = append(out, k)
		}
	}
	if len(out) == 0 {
		out = []int{m.MaxK}
	}
	return out
}

// pick returns smoke in a smoke run and full otherwise.
func pick[T any](m Mode, smoke, full T) T {
	if m.Smoke {
		return smoke
	}
	return full
}

// smokeScales are the daemon counts of every smoke sweep.
var smokeScales = []int{8, 32}

// Result is one experiment run.
type Result struct {
	Rows  []any           // one row slice per stem, in stem order
	Print func(io.Writer) // renders the rows
	Check func() error    // the experiment's assertions; nil when it makes none
}

// Experiment is one entry of the table.
type Experiment struct {
	Name string // unique; the benchmarks look entries up by it
	// Flag selects the experiment in lmonbench: -<Flag>, or -<Flag> <Arg>
	// when Arg is set. Arg "FILE" takes any path, passed as Mode.File.
	Flag, Arg string
	Help      string
	All       bool     // part of -all, the run with no selection
	Stems     []string // BENCH_<stem>.json files of a full run, in Rows order
	// SmokeStems are the files of a smoke run. An experiment without
	// them has no smoke variant and is not part of the smoke sweep.
	SmokeStems []string
	Run        func(Mode) (Result, error)
}

// StemsFor returns the stems a run in mode m writes.
func (e *Experiment) StemsFor(m Mode) []string {
	if m.Smoke && len(e.SmokeStems) > 0 {
		return e.SmokeStems
	}
	return e.Stems
}

// Lookup returns the named experiment, or nil.
func Lookup(name string) *Experiment {
	for i := range Experiments {
		if Experiments[i].Name == name {
			return &Experiments[i]
		}
	}
	return nil
}

// one wraps a single row set with its printer and check.
func one[R any](rows []R, print func(io.Writer, []R), check func([]R) error) Result {
	res := Result{Rows: []any{rows}, Print: func(w io.Writer) { print(w, rows) }}
	if check != nil {
		res.Check = func() error { return check(rows) }
	}
	return res
}

// fixed declares a fixed-scale experiment of -all: no options, no smoke
// variant, one stem named after it.
func fixed[R any](name, flag, arg, help string, run func() ([]R, error), print func(io.Writer, []R), check func([]R) error) Experiment {
	return Experiment{Name: name, Flag: flag, Arg: arg, Help: help, All: true, Stems: []string{name},
		Run: func(Mode) (Result, error) {
			rows, err := run()
			return one(rows, print, check), err
		}}
}

// rowCount returns a check that a sweep produced want rows.
func rowCount[R any](want int) func([]R) error {
	return func(rows []R) error {
		if len(rows) != want {
			return fmt.Errorf("%d rows, want %d", len(rows), want)
		}
		return nil
	}
}

// checkLaunchPipe asserts the launch-pipeline claims: every row's slice
// union is byte-identical to the FE table, and at the sweep's largest K
// both cut-through configurations beat store-and-forward and sliced
// retention shrinks the leaf footprint at least tenfold.
func checkLaunchPipe(rows []LaunchPipeRow, scales []int) error {
	if err := rowCount[LaunchPipeRow](len(launchPipeConfigs) * len(scales))(rows); err != nil {
		return err
	}
	maxK := scales[len(scales)-1]
	at := map[string]LaunchPipeRow{} // mode/table → row at maxK
	for _, r := range rows {
		if !r.TableOK {
			return fmt.Errorf("mode %s/%s K=%d: RPDTAB slice union not byte-identical", r.Mode, r.Table, r.Daemons)
		}
		if r.Daemons == maxK {
			at[r.Mode+"/"+r.Table] = r
		}
	}
	sf := at["store-forward/full"]
	for _, key := range []string{"cut-through/full", "cut-through/sliced"} {
		if ct := at[key]; ct.Ready >= sf.Ready {
			return fmt.Errorf("%s (%v) not below store-and-forward (%v) at K=%d", key, ct.Ready, sf.Ready, maxK)
		}
	}
	if full, sliced := at["cut-through/full"], at["cut-through/sliced"]; sliced.MemLeaf*10 > full.MemLeaf {
		return fmt.Errorf("sliced leaf footprint %d B not 10x below full %d B at K=%d", sliced.MemLeaf, full.MemLeaf, maxK)
	}
	return nil
}

// checkMWPipe asserts the MW-pipeline claims: every MW rank holds a
// byte-identical RPDTAB, and cut-through is not slower at any K.
func checkMWPipe(rows []MWPipeRow, scales []int) error {
	if err := rowCount[MWPipeRow](2 * len(scales))(rows); err != nil {
		return err
	}
	sf := map[int]time.Duration{} // K → store-forward ready
	for _, r := range rows {
		if !r.TableOK {
			return fmt.Errorf("mode %s K=%d: MW RPDTAB not byte-identical at every rank", r.Mode, r.Daemons)
		}
		if r.Mode == "store-forward" {
			sf[r.Daemons] = r.Ready
		}
	}
	for _, r := range rows {
		if r.Mode == "cut-through" && r.Ready > sf[r.Daemons] {
			return fmt.Errorf("cut-through (%v) above store-and-forward (%v) at K=%d", r.Ready, sf[r.Daemons], r.Daemons)
		}
	}
	return nil
}

// checkCollective asserts the tree gather beats the flat-master gather
// at the sweep's largest K.
func checkCollective(rows []CollectiveRow, scales []int) error {
	if err := rowCount[CollectiveRow](len(scales))(rows); err != nil {
		return err
	}
	if last := rows[len(rows)-1]; last.TreeGather >= last.FlatGather {
		return fmt.Errorf("tree gather (%v) not faster than flat-master gather (%v) at K=%d",
			last.TreeGather, last.FlatGather, last.Daemons)
	}
	return nil
}

// checkFigure6 asserts the rsh launch fails at the sweep's largest scale.
func checkFigure6(rows []Fig6Row) error {
	if len(rows) == 0 || !rows[len(rows)-1].MRNetFailed {
		return fmt.Errorf("rsh did not fail at %d daemons", Figure6Scales[len(Figure6Scales)-1])
	}
	return nil
}

// Experiments is the table, in run order.
var Experiments = []Experiment{
	fixed("figure3", "fig", "3", "Figure 3, launchAndSpawn components, model vs measured (16..128 daemons)",
		Figure3, PrintFigure3, rowCount[Fig3Row](len(Figure3Scales))),
	fixed("figure5", "fig", "5", "Figure 5, Jobsnap (64..1024 daemons)",
		Figure5, PrintFigure5, rowCount[Fig5Row](len(Figure5Scales))),
	fixed("figure6", "fig", "6", "Figure 6, STAT start-up, MRNet-rsh vs LaunchMON (4..512 daemons)",
		Figure6, PrintFigure6, checkFigure6),
	fixed("table1", "table", "1", "Table 1, O|SS APAI access, DPCL vs LaunchMON (2..32 nodes)",
		Table1, PrintTable1, rowCount[T1Row](len(Table1Scales))),
	fixed("ablation_bgl", "ablations", "", "RM cost profiles (SLURM, BG/L, ALPS)", BGLAblation, PrintBGL, nil),
	fixed("ablation_fanout", "ablations", "", "ICCL fan-out", AblationFanout, PrintFanout, nil),
	fixed("ablation_piggyback", "ablations", "", "tool-data piggybacking", AblationPiggyback, PrintPiggyback, nil),
	fixed("ablation_debug_events", "ablations", "", "RM debug-event scaling", AblationDebugEvents, PrintDebugEvents, nil),
	fixed("ablation_proctab", "ablations", "", "RPDTAB distribution, broadcast vs shared file", AblationProctab, PrintProctabAblation, nil),
	fixed("ablation_jobsnap_tree", "ablations", "", "Jobsnap collection tree", AblationJobsnapTree, PrintJobsnapTree, nil),
	{
		Name: "ablation_concurrent", Flag: "ablations", All: true,
		Stems: []string{"ablation_concurrent"}, SmokeStems: []string{"smoke_concurrent"},
		Help: "concurrent sessions over one FE mux",
		Run: func(m Mode) (Result, error) {
			scales := pick(m, []int{1, 4}, ConcurrentScales)
			rows, err := ConcurrentSessions(pick(m, ConcurrentSessionOpts{NodesEach: 4, TasksPerNode: 2}, ConcurrentSessionOpts{}), scales)
			return one(rows, PrintConcurrent, rowCount[ConcurrentRow](len(scales))), err
		},
	},
	{
		Name: "collective", Flag: "collective", All: true,
		Stems: []string{"collective"}, SmokeStems: []string{"smoke_collective"},
		Help: "collective tool-data-plane ablation (flat vs tree, K up to 16384)",
		Run: func(m Mode) (Result, error) {
			scales := m.Scales(pick(m, smokeScales, CollectiveScales))
			rows, err := CollectiveAblation(pick(m, CollectiveOpts{PayloadB: 128, Fanout: 4}, CollectiveOpts{}), scales)
			return one(rows, PrintCollective, func(rows []CollectiveRow) error { return checkCollective(rows, scales) }), err
		},
	},
	{
		Name: "contention", Flag: "contention", All: true,
		Stems: []string{"contention"}, SmokeStems: []string{"smoke_contention"},
		Help: "collective contention ablation (lockstep serialization vs concurrent tagged streams, K up to 16384)",
		Run: func(m Mode) (Result, error) {
			rows, err := ContentionAblation(pick(m, ContentionOpts{PayloadB: 128, Fanout: 4}, ContentionOpts{}),
				m.Scales(pick(m, smokeScales, ContentionScales)))
			return one(rows, PrintContention, nil), err
		},
	},
	{
		Name: "launchpipe", Flag: "launch", All: true,
		Stems: []string{"launchpipe"}, SmokeStems: []string{"smoke_launchpipe"},
		Help: "launch-pipeline ablation (store-and-forward vs cut-through seed, full vs sliced retention, K up to 16384)",
		Run: func(m Mode) (Result, error) {
			o := pick(m, LaunchPipeOpts{Fanout: 4}, LaunchPipeOpts{})
			o.Obs = m.Obs
			scales := m.Scales(pick(m, smokeScales, LaunchScales))
			rows, err := LaunchPipeline(o, scales)
			return one(rows, func(w io.Writer, rows []LaunchPipeRow) {
				printLaunch(w, m, rows)
				if m.Obs {
					fmt.Fprintln(w)
					PrintLaunchObs(w, rows)
				}
			}, func(rows []LaunchPipeRow) error {
				if err := checkLaunchPipe(rows, scales); err != nil || !m.Obs {
					return err
				}
				return CheckObsInvariants(rows, o.Fanout)
			}), err
		},
	},
	{
		Name: "launch_million", Flag: "million",
		Stems: []string{"launch_million"}, SmokeStems: []string{"smoke_launch_million"},
		Help: "million-daemon launch sweep (rank-sliced cut-through on a lean rig, K=2^20)",
		Run: func(m Mode) (Result, error) {
			// All K daemons coexist until the seed drains, so the peak heap
			// is ~everything live at once: trade GC CPU for the 16 GB CI
			// budget with GOGC=30 and a 13 GiB soft memory limit (DESIGN.md
			// "Simulator cost model"). The environment's GOGC and
			// GOMEMLIMIT win.
			if os.Getenv("GOGC") == "" {
				defer debug.SetGCPercent(debug.SetGCPercent(30))
			}
			if os.Getenv("GOMEMLIMIT") == "" {
				defer debug.SetMemoryLimit(debug.SetMemoryLimit(13 << 30))
			}
			rows, err := LaunchMillion(pick(m, MillionOpts{Fanout: 4}, MillionOpts{}),
				m.Scales(pick(m, []int{64}, MillionScales)))
			return one(rows, func(w io.Writer, rows []LaunchPipeRow) {
				printLaunch(w, m, rows)
				fmt.Fprintln(w)
				PrintMillionCost(w, rows)
			}, nil), err
		},
	},
	{
		Name: "mwpipe", Flag: "mw", All: true,
		Stems: []string{"mwpipe"}, SmokeStems: []string{"smoke_mwpipe"},
		Help: "middleware launch-pipeline ablation (store-and-forward vs cut-through MW seed, K up to 16384)",
		Run: func(m Mode) (Result, error) {
			scales := m.Scales(pick(m, smokeScales, MWScales))
			rows, err := MWPipeline(pick(m, MWPipeOpts{JobNodes: 4, TasksPerNode: 4, Fanout: 4, ChunkBytes: 256}, MWPipeOpts{}), scales)
			return one(rows, PrintMWPipeline, func(rows []MWPipeRow) error { return checkMWPipe(rows, scales) }), err
		},
	},
	{
		Name: "failure_detection", Flag: "failure", All: true,
		Stems:      []string{"failure_detection", "heartbeat_overhead"},
		SmokeStems: []string{"smoke_failure_detection", "smoke_heartbeat_overhead"},
		Help:       "failure-detection ablation (K up to 16384) and heartbeat wire overhead vs period",
		Run: func(m Mode) (Result, error) {
			scales := m.Scales(pick(m, smokeScales, FailureScales))
			rows, err := FailureDetection(pick(m, FailureOpts{Period: 100 * time.Millisecond, Fanout: 4, Silent: true}, FailureOpts{Silent: true}), scales)
			if err != nil {
				return Result{}, err
			}
			overhead, err := HeartbeatOverhead(pick(m, 8, 256),
				pick(m, []time.Duration{500 * time.Millisecond}, OverheadPeriods), pick(m, 5*time.Second, 30*time.Second))
			return Result{Rows: []any{rows, overhead},
				Print: func(w io.Writer) {
					PrintFailure(w, rows)
					fmt.Fprintln(w)
					PrintOverhead(w, overhead)
				},
				Check: func() error { return rowCount[FailureRow](len(scales))(rows) }}, err
		},
	},
	{
		Name: "trace", Flag: "trace", Arg: "FILE",
		Help: "one obs-on launch at K=1024 (capped by -maxk), its Perfetto trace JSON written to `FILE` and its metrics snapshot to FILE.metrics.json",
		Run: func(m Mode) (Result, error) {
			res, err := TraceLaunch(m.Scales([]int{1024})[0], m.File)
			return Result{Print: func(w io.Writer) {
				fmt.Fprintf(w, "wrote %s (K=%d, %d spans, %d instants, %d B) and %s.metrics.json\n",
					m.File, res.Daemons, res.Spans, res.Instants, res.TraceBytes, m.File)
			}}, err
		},
	},
}

// printLaunch renders a launch sweep, plus its memory table under -mem.
func printLaunch(w io.Writer, m Mode, rows []LaunchPipeRow) {
	PrintLaunchPipeline(w, rows)
	if m.Mem {
		fmt.Fprintln(w)
		PrintLaunchMem(w, rows)
	}
}
