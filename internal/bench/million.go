package bench

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"strconv"

	"launchmon/internal/core"
)

// The million-daemon launch sweep — the ROADMAP's headline scale target.
// Only the rank-sliced cut-through pipeline can reach K=10⁶ on a bounded
// host: full retention would put a ~60 MB table copy in every one of a
// million simulated daemons. The sweep runs on a lean rig (RM and
// LaunchMON only — the full rig parks two extra system processes per
// node, which at this scale costs more host memory than LaunchMON
// itself) with health detection off, one task per node, and no
// post-launch verification gather (the slice-union byte check runs in
// LaunchPipeline at K≤16384, where full retention exists to compare
// against).

// MillionScales are the daemon counts of the million sweep.
var MillionScales = []int{1 << 20}

// MillionOpts parameterize the sweep.
type MillionOpts struct {
	TasksPerNode int // default 1
	Fanout       int // ICCL tree fanout (default 64)
}

// LaunchMillion measures the rank-sliced cut-through launch at each
// scale, reporting the same row shape as LaunchPipeline.
func LaunchMillion(opts MillionOpts, scales []int) ([]LaunchPipeRow, error) {
	o := LaunchPipeOpts{TasksPerNode: opts.TasksPerNode, Fanout: opts.Fanout, lean: true}
	if o.Fanout == 0 {
		o.Fanout = 64
	}
	return launchSweep(o.withDefaults(), []launchPipeConfig{{core.SeedCutThrough, core.TableSliced}}, scales)
}

// hostRSSPeak reads this process's peak resident set (VmHWM) in bytes.
// Returns 0 where /proc is unavailable; the column is then omitted.
func hostRSSPeak() uint64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte("VmHWM:")) {
			continue
		}
		f := bytes.Fields(line[len("VmHWM:"):])
		if len(f) < 1 {
			return 0
		}
		kb, err := strconv.ParseUint(string(f[0]), 10, 64)
		if err != nil {
			return 0
		}
		return kb << 10
	}
	return 0
}

// PrintMillionCost renders the simulator host-cost columns of a million
// sweep: the per-node goroutine budget is the deterministic, pinnable
// figure; peak RSS depends on the host Go runtime and is informational.
func PrintMillionCost(w io.Writer, rows []LaunchPipeRow) {
	fmt.Fprintln(w, "Simulator host cost (goroutines are virtual-time-deterministic; RSS is host-dependent)")
	fmt.Fprintln(w, "daemons   goroutines-peak  goroutines/node  rss-peak-MB")
	for _, r := range rows {
		fmt.Fprintf(w, "%7d %17d %16.3f %12.1f\n",
			r.Daemons, r.GoroutinesPeak, r.GoroutinesPerNode, float64(r.RSSPeakB)/(1<<20))
	}
}
