package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// layers are the names the CPU profile is rolled up into, in report
// order. Each is reported as host.<layer>_s.
var layers = []string{
	"sim", "network", "memsys", "mem", "proto", "aec", "lap", "lockpolicy",
	"tm", "munin", "fault", "recover", "apps", "harness", "other",
	"rt_sched", "rt_gc", "rt_maps", "rt_other",
}

// pkgLayer maps a simulator package to its layer. Packages not listed
// (topo, bitset, stats, trace, the standard library, this benchmark)
// count as "other"; the Go runtime is split by runtimeLayer.
var pkgLayer = map[string]string{
	"aecdsm/internal/sim":        "sim",
	"aecdsm/internal/network":    "network",
	"aecdsm/internal/memsys":     "memsys",
	"aecdsm/internal/mem":        "mem",
	"aecdsm/internal/proto":      "proto",
	"aecdsm/internal/aec":        "aec",
	"aecdsm/internal/lap":        "lap",
	"aecdsm/internal/lockpolicy": "lockpolicy",
	"aecdsm/internal/tm":         "tm",
	"aecdsm/internal/munin":      "munin",
	"aecdsm/internal/fault":      "fault",
	"aecdsm/internal/recover":    "recover",
	"aecdsm/internal/apps":       "apps",
	"aecdsm/internal/harness":    "harness",
	"internal/runtime/maps":      "rt_maps",
}

// Runtime functions by the part of the runtime they belong to, matched by
// name prefix after "runtime.". rt_sched is the coroutine handoff between
// the engine and the simulated processors (channel operations, the
// scheduler, parking, futexes); rt_gc is allocation, marking and
// sweeping; rt_maps is map access and hashing. The rest is rt_other.
var runtimeLayers = []struct {
	layer    string
	prefixes []string
}{
	{"rt_sched", []string{
		"chansend", "chanrecv", "send", "recv", "selectgo", "closechan",
		"schedule", "findRunnable", "park_m", "gopark", "goready", "ready",
		"runq", "globrunq", "execute", "gogo", "mcall", "gosched", "goexit",
		"futex", "notesleep", "notewakeup", "semasleep", "semawakeup",
		"stopm", "startm", "wakep", "handoffp", "acquirep", "releasep",
		"pidle", "stealWork", "resetspinning", "checkTimers", "casgstatus",
		"dropg", "mPark", "lock2", "unlock2", "lockWithRank", "unlockWithRank",
		"usleep", "osyield", "procyield", "netpoll", "sysmon", "retake",
		"coroswitch", "(*timers)", "(*randomEnum)", "nanotime", "asyncPreempt",
		"gopreempt", "(*guintptr)", "acquireSudog", "releaseSudog", "acquirem",
		"releasem", "chanparkcommit", "pMask", "lock", "unlock",
	}},
	{"rt_gc", []string{
		"mallocgc", "newobject", "newarray", "makeslice", "growslice",
		"nextFreeFast", "memclrNoHeapPointers", "memclrHasPointers",
		"gcBgMarkWorker", "gcDrain", "gcAssist", "gcFlushBgCredit",
		"gcmarknewobject", "gcStart", "gcMark", "gcSweep", "gcWriteBarrier",
		"(*gcWork)", "(*gcControllerState)", "(*gcBits)", "scanobject",
		"scanblock", "scanstack", "scanframeworker", "greyobject", "markroot",
		"findObject", "shade", "wbBuf", "bulkBarrier", "typePointers",
		"(*typePointers)", "heapSetType", "heapBits", "spanOf", "pageIndexOf",
		"(*mspan)", "(*mheap)", "(*mcache)", "(*mcentral)", "(*pageAlloc)",
		"(*spanSet)", "(*mSpanList)", "(*lfstack)", "(*sweepLocked)",
		"(*scavengerState)", "sweepone", "bgsweep", "bgscavenge", "getempty",
		"putempty", "trygetfull", "sysAlloc", "sysUnused", "sysUsed", "madvise",
		"roundupsize", "(*consistentHeapStats)", "(*sysMemStat)", "getMCache",
		"convT", "markBits", "publicationBarrier", "deductAssistCredit",
		"(*atomicMSpanPointer)", "wbMove",
	}},
	{"rt_maps", []string{
		"map", "makemap", "memhash", "aeshash", "strhash", "interhash", "nilinterhash",
		"typehash", "efaceHash", "f64hash", "c128hash",
	}},
}

// runtimeLayer classifies a function of package runtime by name (without
// the "runtime." prefix).
func runtimeLayer(fn string) string {
	for _, rl := range runtimeLayers {
		for _, p := range rl.prefixes {
			if strings.HasPrefix(fn, p) {
				return rl.layer
			}
		}
	}
	return "rt_other"
}

// pkgOf returns the package path of a fully qualified function name as
// pprof prints it, e.g. "aecdsm/internal/sim" for
// "aecdsm/internal/sim.(*Engine).step" and "runtime" for
// "runtime.chanrecv".
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may hold dots and slashes
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// layerOf classifies one profiled function.
func layerOf(fn string) string {
	pkg := pkgOf(fn)
	switch {
	case pkg == "runtime":
		return runtimeLayer(strings.TrimPrefix(fn, "runtime."))
	case pkg == fn:
		return runtimeLayer(fn) // an assembly stub such as gcWriteBarrier
	case pkgLayer[pkg] != "":
		return pkgLayer[pkg]
	case strings.HasPrefix(pkg, "internal/runtime/syscall"):
		return "rt_sched" // futex and epoll calls of the scheduler
	case pkg == "sync" || strings.HasPrefix(pkg, "sync/") ||
		strings.HasPrefix(pkg, "internal/") || strings.HasPrefix(pkg, "runtime/internal/"):
		return "rt_other"
	}
	return "other"
}

// rollUp reads `go tool pprof -top` text and sums each function's flat
// seconds into its layer. Every layer is present in the result, zero when
// no sample landed in it.
func rollUp(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64, len(layers))
	for _, l := range layers {
		out[l] = 0
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	inTable := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !inTable {
			inTable = len(f) == 5 && f[0] == "flat" && f[4] == "cum%"
			continue
		}
		if len(f) < 6 {
			return nil, fmt.Errorf("pprof -top: malformed row %q", sc.Text())
		}
		flat, err := parseDuration(f[0])
		if err != nil {
			return nil, err
		}
		fn := strings.Join(f[5:], " ") // pprof appends " (inline)" to some names
		out[layerOf(strings.TrimSuffix(fn, " (inline)"))] += flat
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !inTable {
		return nil, fmt.Errorf("pprof -top: no table header in output")
	}
	return out, nil
}

// parseDuration reads a pprof duration such as "1.25s", "340ms" or "0" in
// seconds.
func parseDuration(s string) (float64, error) {
	units := []struct {
		suffix string
		scale  float64
	}{ // each before its own suffixes: "mins" ends in "ns" and "s"
		{"mins", 60}, {"min", 60}, {"hrs", 3600}, {"hr", 3600},
		{"ns", 1e-9}, {"us", 1e-6}, {"µs", 1e-6}, {"ms", 1e-3}, {"s", 1},
	}
	for _, u := range units {
		if v, ok := strings.CutSuffix(s, u.suffix); ok {
			x, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return 0, fmt.Errorf("pprof -top: bad duration %q", s)
			}
			return x * u.scale, nil
		}
	}
	if s == "0" {
		return 0, nil
	}
	return 0, fmt.Errorf("pprof -top: bad duration %q", s)
}
