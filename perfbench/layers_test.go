package main

import (
	"math"
	"os"
	"strings"
	"testing"
)

func TestRollUpFixture(t *testing.T) {
	f, err := os.Open("testdata/pprof-top.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := rollUp(f)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"sim": 0.05, "network": 0.02, "memsys": 0.02, "mem": 0.18,
		"proto": 0.02, "aec": 0.04, "lap": 0.03, "lockpolicy": 0.02,
		"tm": 0.03, "munin": 0.02, "fault": 0.01, "recover": 0.01,
		"apps": 0.02, "harness": 0.01,
		"other":    0.01 + 0.08 + 0.04, // topo, encoding/binary, slices
		"rt_sched": 0.17 + 0.09 + 0.07, // futex, asyncPreempt, chanrecv
		"rt_gc":    0.06 + 0.03 + 0.01 + 0.01,
		"rt_maps":  0.06 + 0.04,
		"rt_other": 0.09 + 0.01 + 0.01, // memmove, atomic, sync.Pool
	}
	if len(got) != len(layers) {
		t.Errorf("got %d layers, want %d", len(got), len(layers))
	}
	var total float64
	for _, l := range layers {
		total += got[l]
		if math.Abs(got[l]-want[l]) > 1e-9 {
			t.Errorf("%s = %.3f s, want %.3f s", l, got[l], want[l])
		}
	}
	if math.Abs(total-1.26) > 1e-9 {
		t.Errorf("layers sum to %.3f s, want the table's 1.26 s of flat time", total)
	}
}

func TestPkgOf(t *testing.T) {
	for fn, want := range map[string]string{
		"aecdsm/internal/sim.(*Engine).step":                             "aecdsm/internal/sim",
		"runtime.chanrecv":                                               "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":                   "internal/runtime/maps",
		"aecdsm/internal/sim.Generic[go.shape.struct { a/b.c int }].Run": "aecdsm/internal/sim",
		"gcWriteBarrier":                                                 "gcWriteBarrier",
	} {
		if got := pkgOf(fn); got != want {
			t.Errorf("pkgOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestRollUpRejectsMalformed(t *testing.T) {
	for name, text := range map[string]string{
		"no header": "File: x\n",
		"bad unit":  "      flat  flat%   sum%        cum   cum%\n 1.2parsecs 1% 1% 1s 1% runtime.x\n",
		"short row": "      flat  flat%   sum%        cum   cum%\n 1s 1%\n",
	} {
		if _, err := rollUp(strings.NewReader(text)); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

func TestParseDuration(t *testing.T) {
	for s, want := range map[string]float64{
		"0": 0, "1.5s": 1.5, "340ms": 0.34, "20us": 20e-6, "7ns": 7e-9, "2mins": 120, "1.5hrs": 5400,
	} {
		got, err := parseDuration(s)
		if err != nil || math.Abs(got-want) > 1e-12 {
			t.Errorf("parseDuration(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
}
