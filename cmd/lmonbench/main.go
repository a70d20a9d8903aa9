// Command lmonbench regenerates the paper's evaluation tables and figures
// on the simulated cluster, running each experiment and its checks from
// the one table in internal/bench (bench.Experiments). With no
// selection it runs every experiment of -all.
//
// Usage:
//
//	lmonbench [-fig 3|5|6] [-table 1] [-ablations] [-failure] [-collective] [-contention] [-launch] [-million] [-mw] [-trace FILE] [-mem] [-obs] [-maxk N] [-smoke] [-json] [-all]
//
// Each selector flag picks its table entries; -all picks every entry
// except -million and -trace. -smoke runs the entries with a smoke
// variant (the CI smoke sweep) at their reduced options and scales; with
// a selector it runs only the selected entries, those without a smoke
// variant at full scale. -maxk N applies one
// rule to every daemon-count sweep (failure, collective, contention,
// launch, million, mw and the trace's K=1024): scales above N are
// dropped, and a sweep left empty runs the single point K=N — so
// `-million -maxk 65536` fits a host well below the 16 GB the full
// K=2^20 point needs. -mem adds the per-role peak RPDTAB memory table to
// the launch and million sweeps; -obs adds the observability rider (an
// obs-on second pass per row, checked against the wire-byte and drift
// invariants) to the launch sweep.
//
// With -json, each experiment also writes its rows as BENCH_<stem>.json
// in the working directory, one file per stem the table declares for it.
// lmonbench exits non-zero when an experiment fails, when one of its
// checks fails (the same checks the repository-root benchmarks enforce),
// and under -json when an experiment yields zero rows or leaves a
// declared stem unwritten. -trace FILE writes a Chrome/Perfetto
// trace-event JSON to FILE plus the harvested metrics snapshot to
// FILE.metrics.json; load the trace in ui.perfetto.dev or
// chrome://tracing.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"

	"launchmon/internal/bench"
)

// flagHelp joins the help of every table entry a selector flag picks.
func flagHelp(name string) string {
	var parts []string
	for _, e := range bench.Experiments {
		switch {
		case e.Flag != name:
		case e.Arg == "" || e.Arg == "FILE":
			parts = append(parts, e.Help)
		default:
			parts = append(parts, e.Arg+": "+e.Help)
		}
	}
	return strings.Join(parts, "; ")
}

// emit writes one stem's rows as BENCH_<stem>.json.
func emit(stem string, rows any) error {
	if reflect.ValueOf(rows).Len() == 0 {
		return fmt.Errorf("%s: zero rows", stem)
	}
	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	path := fmt.Sprintf("BENCH_%s.json", stem)
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// run runs one experiment: measure, print, emit under -json, check.
func run(e *bench.Experiment, m bench.Mode, writeJSON bool) error {
	res, err := e.Run(m)
	if err != nil {
		return err
	}
	res.Print(os.Stdout)
	if writeJSON {
		stems := e.StemsFor(m)
		if len(res.Rows) < len(stems) {
			return fmt.Errorf("stem %s left unwritten", stems[len(res.Rows)])
		}
		for i, stem := range stems {
			if err := emit(stem, res.Rows[i]); err != nil {
				return err
			}
		}
	}
	if res.Check != nil {
		return res.Check()
	}
	return nil
}

func main() {
	bools := map[string]*bool{}
	vals := map[string]*string{}
	for _, e := range bench.Experiments {
		if bools[e.Flag] != nil || vals[e.Flag] != nil {
			continue
		}
		if e.Arg == "" {
			bools[e.Flag] = flag.Bool(e.Flag, false, flagHelp(e.Flag))
		} else {
			vals[e.Flag] = flag.String(e.Flag, "", flagHelp(e.Flag))
		}
	}
	mem := flag.Bool("mem", false, "with -launch/-million, also print the per-role peak RPDTAB memory table")
	obsRider := flag.Bool("obs", false, "with -launch, add the observability rider (obs-on second pass + invariant checks)")
	maxk := flag.Int("maxk", 0, "drop daemon-count sweep scales above `N`, running the single point K=N when none is left (0 = full scale)")
	smoke := flag.Bool("smoke", false, "run the smoke variants at reduced scale (CI)")
	all := flag.Bool("all", false, "run every experiment except -million and -trace")
	writeJSON := flag.Bool("json", false, "also write results as BENCH_<stem>.json")
	flag.Parse()

	selected := func(e *bench.Experiment) bool {
		if e.Arg == "" {
			return *bools[e.Flag]
		}
		v := *vals[e.Flag]
		return v != "" && (e.Arg == "FILE" || v == e.Arg)
	}
	for name, v := range vals {
		ok := *v == ""
		for i := range bench.Experiments {
			ok = ok || bench.Experiments[i].Flag == name && selected(&bench.Experiments[i])
		}
		if !ok {
			fmt.Fprintf(os.Stderr, "lmonbench: -%s %s selects no experiment\n", name, *v)
			os.Exit(2)
		}
	}
	none := true
	for i := range bench.Experiments {
		none = none && !selected(&bench.Experiments[i])
	}
	for i := range bench.Experiments {
		e := &bench.Experiments[i]
		inSweep := e.All
		if *smoke {
			inSweep = len(e.SmokeStems) > 0
		}
		if !selected(e) && !((*all || none) && inSweep) {
			continue
		}
		m := bench.Mode{Smoke: *smoke, MaxK: *maxk, Mem: *mem, Obs: *obsRider}
		if e.Arg == "FILE" {
			m.File = *vals[e.Flag]
		}
		if err := run(e, m, *writeJSON); err != nil {
			fmt.Fprintf(os.Stderr, "lmonbench: %s: %v\n", e.Name, err)
			os.Exit(1)
		}
		fmt.Println()
	}
}
