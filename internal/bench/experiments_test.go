package bench

import (
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
)

// The experiment table's own invariants, checked without running any
// experiment.

func TestExperimentTableNamesAndStemsUnique(t *testing.T) {
	names, stems := map[string]bool{}, map[string]bool{}
	for _, e := range Experiments {
		if e.Name == "" || e.Flag == "" || e.Help == "" || e.Run == nil {
			t.Errorf("entry %q: name, flag, help and run are all required", e.Name)
		}
		if names[e.Name] {
			t.Errorf("duplicate experiment name %q", e.Name)
		}
		names[e.Name] = true
		for _, s := range append(append([]string(nil), e.Stems...), e.SmokeStems...) {
			if stems[s] {
				t.Errorf("stem %q written by two entries or modes", s)
			}
			stems[s] = true
		}
		if len(e.SmokeStems) > 0 && len(e.SmokeStems) != len(e.Stems) {
			t.Errorf("%s: %d smoke stems for %d full stems", e.Name, len(e.SmokeStems), len(e.Stems))
		}
	}
}

// TestBaselineStemsProduced checks every stem pinned in
// ci/bench_baseline.json is written by an entry in the mode CI runs it:
// the smoke_* pins by the smoke sweep, the rest by a full-scale run.
func TestBaselineStemsProduced(t *testing.T) {
	data, err := os.ReadFile("../../ci/bench_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var pin struct{ Metrics map[string]float64 }
	if err := json.Unmarshal(data, &pin); err != nil {
		t.Fatal(err)
	}
	for key := range pin.Metrics {
		stem, _, _ := strings.Cut(key, "[")
		m := Mode{Smoke: strings.HasPrefix(stem, "smoke_")}
		found := false
		for _, e := range Experiments {
			found = found || slices.Contains(pick(m, e.SmokeStems, e.Stems), stem)
		}
		if !found {
			t.Errorf("pinned stem %q is not written by any experiment in smoke=%v mode", stem, m.Smoke)
		}
	}
}

func TestMaxKRule(t *testing.T) {
	sweep := []int{64, 1024, 16384}
	for _, c := range []struct {
		maxk int
		want []int
	}{
		{0, sweep},
		{1024, []int{64, 1024}},
		{20000, sweep},
		{32, []int{32}},
		{65536, sweep},
	} {
		if got := (Mode{MaxK: c.maxk}).Scales(sweep); !reflect.DeepEqual(got, c.want) {
			t.Errorf("-maxk %d: scales %v, want %v", c.maxk, got, c.want)
		}
	}
	if got := (Mode{MaxK: 65536}).Scales(MillionScales); !reflect.DeepEqual(got, []int{65536}) {
		t.Errorf("-million -maxk 65536: scales %v, want [65536]", got)
	}
}

// launchRows is a passing launch-pipeline row set at K ∈ {8, 32}.
func launchRows() []LaunchPipeRow {
	var rows []LaunchPipeRow
	for _, k := range []int{8, 32} {
		rows = append(rows,
			LaunchPipeRow{Mode: "store-forward", Table: "full", Daemons: k, Ready: 117 * time.Millisecond, TableOK: true, MemLeaf: 1721},
			LaunchPipeRow{Mode: "cut-through", Table: "full", Daemons: k, Ready: 110 * time.Millisecond, TableOK: true, MemLeaf: 1721},
			LaunchPipeRow{Mode: "cut-through", Table: "sliced", Daemons: k, Ready: 110 * time.Millisecond, TableOK: true, MemLeaf: 57})
	}
	return rows
}

func TestChecksRejectDoctoredRows(t *testing.T) {
	scales := []int{8, 32}
	if err := checkLaunchPipe(launchRows(), scales); err != nil {
		t.Fatalf("passing launch rows rejected: %v", err)
	}
	for name, doctor := range map[string]func([]LaunchPipeRow) []LaunchPipeRow{
		"table mismatch":      func(r []LaunchPipeRow) []LaunchPipeRow { r[1].TableOK = false; return r },
		"cut-through slower":  func(r []LaunchPipeRow) []LaunchPipeRow { r[4].Ready = r[3].Ready; return r },
		"sliced leaf not 10x": func(r []LaunchPipeRow) []LaunchPipeRow { r[5].MemLeaf = 200; return r },
		"row missing":         func(r []LaunchPipeRow) []LaunchPipeRow { return r[:5] },
	} {
		if checkLaunchPipe(doctor(launchRows()), scales) == nil {
			t.Errorf("launch check accepted a doctored row set: %s", name)
		}
	}

	mwRows := func() []MWPipeRow {
		return []MWPipeRow{
			{Mode: "store-forward", Daemons: 8, Ready: 60 * time.Millisecond, TableOK: true},
			{Mode: "cut-through", Daemons: 8, Ready: 55 * time.Millisecond, TableOK: true},
			{Mode: "store-forward", Daemons: 32, Ready: 68 * time.Millisecond, TableOK: true},
			{Mode: "cut-through", Daemons: 32, Ready: 62 * time.Millisecond, TableOK: true},
		}
	}
	if err := checkMWPipe(mwRows(), scales); err != nil {
		t.Fatalf("passing MW rows rejected: %v", err)
	}
	for name, doctor := range map[string]func([]MWPipeRow) []MWPipeRow{
		"table mismatch":          func(r []MWPipeRow) []MWPipeRow { r[2].TableOK = false; return r },
		"cut-through slower at 8": func(r []MWPipeRow) []MWPipeRow { r[1].Ready = r[0].Ready + 1; return r },
		"row missing":             func(r []MWPipeRow) []MWPipeRow { return r[:3] },
	} {
		if checkMWPipe(doctor(mwRows()), scales) == nil {
			t.Errorf("MW check accepted a doctored row set: %s", name)
		}
	}

	coll := []CollectiveRow{{Daemons: 8, FlatGather: 2, TreeGather: 3}, {Daemons: 32, FlatGather: 5, TreeGather: 2}}
	if err := checkCollective(coll, scales); err != nil {
		t.Fatalf("passing collective rows rejected: %v", err)
	}
	coll[1].TreeGather = coll[1].FlatGather
	if checkCollective(coll, scales) == nil {
		t.Error("collective check accepted a tree gather no faster than flat at the largest K")
	}
	if checkCollective(coll[:1], scales) == nil {
		t.Error("collective check accepted a missing row")
	}

	fig6 := []Fig6Row{{Daemons: 256}, {Daemons: 512, MRNetFailed: true}}
	if err := checkFigure6(fig6); err != nil {
		t.Fatalf("passing figure 6 rows rejected: %v", err)
	}
	fig6[1].MRNetFailed = false
	if checkFigure6(fig6) == nil {
		t.Error("figure 6 check accepted an rsh launch that did not fail at the largest scale")
	}
	if checkFigure6(nil) == nil {
		t.Error("figure 6 check accepted zero rows")
	}
}
