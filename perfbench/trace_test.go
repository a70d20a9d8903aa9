package main

import (
	"bytes"
	"runtime"
	"runtime/pprof"
	"testing"
)

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"launchmon/internal/vtime.(*Sim).Run":                         "vtime",
		"launchmon/internal/rm/slurm.(*Manager).spawn.func1":          "rm_slurm",
		"launchmon/internal/vtime.(*Chan[go.shape.[]uint8]).Send":     "vtime",
		"launchmon/internal/vtime.NewChan[launchmon/internal/coll.F]": "vtime",
		"launchmon/internal/hostlist.Expand":                          "other",
		"main.(*rep).feMain":                                          "bench",
		"runtime.mallocgc":                                            "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

var sink [][]byte

// TestParseProfile decodes a real profile written by runtime/pprof.
func TestParseProfile(t *testing.T) {
	old := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	defer func() { runtime.MemProfileRate = old }()
	for i := 0; i < 1000; i++ {
		sink = append(sink, make([]byte, 64))
	}
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range p.samples {
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				found = found || p.funcNames[fn] == "launchmon/perfbench.TestParseProfile"
			}
		}
	}
	if len(p.samples) == 0 || !found {
		t.Fatalf("%d samples, test function found: %v", len(p.samples), found)
	}
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Fatal("garbage parsed without error")
	}
}
