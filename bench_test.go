package launchmon_test

import (
	"fmt"
	"testing"

	"launchmon/internal/bench"
)

// One benchmark per table/figure of the paper's evaluation, plus the
// ablations. Each iteration regenerates the complete experiment on a
// fresh simulated cluster; reported ns/op is host time to simulate the
// whole sweep (the virtual-time results themselves are printed by
// cmd/lmonbench and recorded in EXPERIMENTS.md).

// runEntry runs the named bench.Experiments entry at full scale b.N
// times, failing b on an error or a failed check — the same checks every
// lmonbench run enforces — and returns the last run's row sets.
func runEntry(b *testing.B, name string) []any {
	e := bench.Lookup(name)
	if e == nil {
		b.Fatalf("no experiment %q", name)
	}
	var rows []any
	for i := 0; i < b.N; i++ {
		res, err := e.Run(bench.Mode{})
		if err == nil && res.Check != nil {
			err = res.Check()
		}
		if err != nil {
			b.Fatal(err)
		}
		rows = res.Rows
	}
	return rows
}

// BenchmarkFigure3_LaunchAndSpawnModelVsMeasured regenerates Figure 3:
// the launchAndSpawn component breakdown and analytic-model comparison,
// 16..128 daemons at 8 tasks/daemon.
func BenchmarkFigure3_LaunchAndSpawnModelVsMeasured(b *testing.B) { runEntry(b, "figure3") }

// BenchmarkFigure5_Jobsnap regenerates Figure 5: Jobsnap total and
// init→attachAndSpawn times, 64..1024 daemons (512..8192 tasks).
func BenchmarkFigure5_Jobsnap(b *testing.B) { runEntry(b, "figure5") }

// BenchmarkFigure6_STATStartup regenerates Figure 6: STAT launch+connect,
// MRNet-rsh vs LaunchMON, 4..512 daemons with the rsh failure at 512.
func BenchmarkFigure6_STATStartup(b *testing.B) { runEntry(b, "figure6") }

// BenchmarkTable1_OSSAPAIAccess regenerates Table 1: O|SS APAI access
// times, DPCL vs LaunchMON, 2..32 nodes.
func BenchmarkTable1_OSSAPAIAccess(b *testing.B) { runEntry(b, "table1") }

// BenchmarkAblation_BGL contrasts the SLURM-like and BG/L-like RM cost
// profiles (§4's closing observation).
func BenchmarkAblation_BGL(b *testing.B) { runEntry(b, "ablation_bgl") }

// BenchmarkAblation_ICCLFanout sweeps the ICCL tree fan-out at 128
// daemons.
func BenchmarkAblation_ICCLFanout(b *testing.B) { runEntry(b, "ablation_fanout") }

// BenchmarkAblation_Piggyback compares piggybacked vs separate tool-data
// delivery.
func BenchmarkAblation_Piggyback(b *testing.B) { runEntry(b, "ablation_piggyback") }

// BenchmarkAblation_ProctabDistribution compares RPDTAB broadcast vs the
// shared-file mechanism.
func BenchmarkAblation_ProctabDistribution(b *testing.B) { runEntry(b, "ablation_proctab") }

// BenchmarkAblation_DebugEvents contrasts fixed vs scale-growing RM debug
// events.
func BenchmarkAblation_DebugEvents(b *testing.B) { runEntry(b, "ablation_debug_events") }

// BenchmarkAblation_ConcurrentSessions launches K ∈ {1,4,8} concurrent
// sessions from one FE process over a single transport mux and reports
// the aggregate session-setup throughput at each K.
func BenchmarkAblation_ConcurrentSessions(b *testing.B) {
	for _, r := range runEntry(b, "ablation_concurrent")[0].([]bench.ConcurrentRow) {
		b.ReportMetric(r.Throughput, fmt.Sprintf("sessions/vsec-K%d", r.Sessions))
	}
}

// BenchmarkAblation_FailureDetection kills the deepest-ranked daemon's
// node mid-session at K ∈ {64, 1024, 16384} and reports how long (in
// virtual time) the loss takes to reach the front end as a DaemonExited
// callback plus the time to full watchdog teardown (the silent link-drop
// path is measured too, as in lmonbench -failure), and sweeps heartbeat
// wire overhead vs period on an idle 256-daemon session.
func BenchmarkAblation_FailureDetection(b *testing.B) {
	sets := runEntry(b, "failure_detection")
	for _, r := range sets[0].([]bench.FailureRow) {
		b.ReportMetric(r.DetectSever.Seconds()*1e3, fmt.Sprintf("detect-vms-K%d", r.Nodes))
		b.ReportMetric(r.Teardown.Seconds()*1e3, fmt.Sprintf("teardown-vms-K%d", r.Nodes))
	}
	for _, r := range sets[1].([]bench.OverheadRow) {
		b.ReportMetric(r.MsgsPerSec, fmt.Sprintf("hb-msgs-per-vsec-p%s", r.Period))
	}
}

// BenchmarkAblation_Collective compares the flat FE↔BE-master pipe (every
// gathered byte relayed monolithically through the master) against the
// tree-routed collective plane at K ∈ {64, 1024, 16384}: per-link message
// counts are bounded by the fanout and chunk size instead of K, so the
// tree gather must beat the flat-master gather at the largest scale, and
// the sum reduction's FE-bound payload is K-independent outright.
func BenchmarkAblation_Collective(b *testing.B) {
	for _, r := range runEntry(b, "collective")[0].([]bench.CollectiveRow) {
		b.ReportMetric(r.FlatGather.Seconds()*1e3, fmt.Sprintf("flat-gather-vms-K%d", r.Daemons))
		b.ReportMetric(r.TreeGather.Seconds()*1e3, fmt.Sprintf("tree-gather-vms-K%d", r.Daemons))
		b.ReportMetric(r.ReduceSum.Seconds()*1e3, fmt.Sprintf("reduce-sum-vms-K%d", r.Daemons))
	}
}

// BenchmarkAblation_LaunchPipeline compares time-to-DaemonsSpawned under
// the serialized store-and-forward seed pipeline (full-table buffering at
// the FE and the master, monolithic post-bootstrap broadcast) against the
// cut-through pipeline (chunks relayed as they arrive and streamed through
// the still-forming ICCL tree) at K ∈ {64, 1024, 16384}, with cut-through
// measured under both RPDTAB retention modes (full copy at every daemon
// vs rank slices over a shared index). Cut-through must be measurably
// faster at the largest scale, every run must leave the union of the
// daemons' rank slices byte-identical to the FE table, and sliced
// retention must shrink the leaf-daemon footprint by at least an order of
// magnitude at K=16384. The three-config sweep runs ~13 min of wall
// clock — pass -timeout beyond go test's 10 m default.
func BenchmarkAblation_LaunchPipeline(b *testing.B) {
	for _, r := range runEntry(b, "launchpipe")[0].([]bench.LaunchPipeRow) {
		b.ReportMetric(r.Ready.Seconds()*1e3, fmt.Sprintf("%s-%s-ready-vms-K%d", r.Mode, r.Table, r.Daemons))
		if r.Table == "sliced" {
			b.ReportMetric(float64(r.MemMaster), fmt.Sprintf("sliced-master-peakB-K%d", r.Daemons))
			b.ReportMetric(float64(r.MemInterior), fmt.Sprintf("sliced-interior-peakB-K%d", r.Daemons))
			b.ReportMetric(float64(r.MemLeaf), fmt.Sprintf("sliced-leaf-peakB-K%d", r.Daemons))
		}
	}
}

// BenchmarkAblation_MWPipeline compares LaunchMW time-to-ready under the
// serialized store-and-forward MW seed (the pre-parity middleware
// pipeline: full-table buffering at the MW master, monolithic broadcast
// after bootstrap) against the cut-through seed streamed through the
// still-forming MW tree, at K ∈ {64, 1024, 16384} middleware daemons.
// Cut-through must not be slower at any scale, and both modes must leave
// every MW rank with a byte-identical RPDTAB.
func BenchmarkAblation_MWPipeline(b *testing.B) {
	for _, r := range runEntry(b, "mwpipe")[0].([]bench.MWPipeRow) {
		b.ReportMetric(r.Ready.Seconds()*1e3, fmt.Sprintf("%s-mw-ready-vms-K%d", r.Mode, r.Daemons))
	}
}

// BenchmarkAblation_JobsnapTree quantifies the paper's §5.1 future-work
// suggestion: Jobsnap with a TBŌN-style k-ary collection tree vs the flat
// gather it measured.
func BenchmarkAblation_JobsnapTree(b *testing.B) { runEntry(b, "ablation_jobsnap_tree") }
