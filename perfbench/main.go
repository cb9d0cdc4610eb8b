// Command perfbench is the repository's benchmark: it runs fixed sets of
// paper-scale app×protocol simulations (cells) one after another in one
// process and reports what a user regenerating the paper's tables pays in
// host time and memory, with every cell's result checked.
//
//	go run . --workload lock-aec --seed 0 --seconds 20 --trace 0
//
// With --trace 0 it repeats the workload's cells for --seconds and prints
// the end-to-end metrics (medians over the repeats). With --trace 1 it
// runs the cells once with spans and a CPU profile over the run phases,
// and once more with a counting sink on the simulator's Tracer, and
// prints the per-layer metrics. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. README.md
// describes the workloads and every metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workdir, under the directory the benchmark runs from, receives the
// traced run's CPU profiles and span file.
const workdir = ".bench_build/perfbench"

// minRepeats is the fewest repeats a median is taken over, so one slow
// repeat cannot move it. It makes barrier-aec (~9 s a repeat) run past a
// 20 s budget.
const minRepeats = 3

// setupReps is how many setup-only composes of every cell precede the
// measured repeats; setup_s is the median over these and the repeats.
const setupReps = 8

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (lock-aec, barrier-aec, lock-tm, faulted-crash)")
	seed := fs.Uint64("seed", 0, "input seed: app base seed, and fault seed minus 11 (0 = the committed streams)")
	seconds := fs.Int("seconds", 20, "how long the untraced run repeats the workload")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		if err == nil {
			err = errors.New("--seconds must be >= 1 and --trace 0 or 1")
		}
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	// One runner executes at a time in the simulator, so one P loses no
	// parallelism; with two, every coroutine handoff crosses OS threads
	// and stalls whenever the other vCPU is descheduled (README.md).
	runtime.GOMAXPROCS(1)
	host := newHostRecord()
	hb, _ := json.Marshal(host) // plain struct of strings and ints
	fmt.Printf("host %s\n", hb)

	var res *result
	var digests map[string]uint64
	if *traced == 0 {
		res, digests = measure(w, *seed, time.Duration(*seconds)*time.Second)
	} else {
		if err := os.MkdirAll(workdir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		res, digests, err = traceRun(w, *seed, host)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	report(w, *seed, res, digests)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// report prints the human-readable lines: every metric by name and unit,
// the fail fraction, and the stats.Run digests, so two commits compare
// byte for byte.
func report(w workload, seed uint64, res *result, digests map[string]uint64) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-12s %-26s %16.6g %s\n", w.name, n, m.Value, m.Unit)
	}
	fmt.Printf("%-12s %-26s %16.6g ratio (%d of %d cells)\n", w.name, "fail_frac",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	h := fnv.New64a()
	var parts []string
	for _, c := range w.cells {
		d := "failed"
		if v, ok := digests[c.String()]; ok {
			d = fmt.Sprintf("%016x", v)
		}
		fmt.Fprintf(h, "%s=%s;", c, d)
		parts = append(parts, c.String()+"="+d)
	}
	fmt.Printf("digest %s seed=%d %016x [%s]\n", w.name, seed, h.Sum64(), strings.Join(parts, " "))
}

// gate collects the correctness verdict of a run: every cell must verify,
// every execution of a cell must produce the same stats.Run digest, and
// the traced run's zero checks must hold.
type gate struct {
	attempted, failed int
	digests           map[string]uint64
	errs              []error
}

func newGate() *gate { return &gate{digests: map[string]uint64{}} }

func (g *gate) fail(err error) {
	g.errs = append(g.errs, err)
	fmt.Fprintln(os.Stderr, "perfbench: FAIL", err)
}

// attempt records one cell execution (or setup-only compose) and
// reports whether it passed.
func (g *gate) attempt(err error) bool {
	g.attempted++
	if err != nil {
		g.failed++
		g.fail(err)
	}
	return err == nil
}

// check records one cell execution, holding its digest to the cell's
// first passing one.
func (g *gate) check(c cell, r cellRun) {
	err := r.err
	d, seen := g.digests[c.String()]
	if err == nil && seen && d != r.digest {
		err = fmt.Errorf("%s: stats digest %016x differs from an earlier run's %016x", c, r.digest, d)
	}
	if g.attempt(err) && !seen {
		g.digests[c.String()] = r.digest
	}
}

func (g *gate) result(m map[string]metric) *result {
	return &result{Correct: len(g.errs) == 0, Attempted: g.attempted, Failed: g.failed, Metrics: m}
}

// measure is the untraced run: it repeats the workload's cells until
// the time budget has passed, and at least minRepeats times, and reports
// the end-to-end metrics as medians over the repeats.
func measure(w workload, seed uint64, budget time.Duration) (*result, map[string]uint64) {
	g := newGate()
	setups := make([][]float64, len(w.cells))
	for i := 0; i < setupReps; i++ {
		for ci, c := range w.cells {
			if d, err := composeOnly(w, c, seed); g.attempt(err) {
				setups[ci] = append(setups[ci], d.Seconds())
			}
		}
	}

	var wall, cpu, alloc, rate []float64
	for start := time.Now(); len(wall) < minRepeats || time.Since(start) < budget; {
		var itWall, itRun, itCPU time.Duration
		var itAlloc, itCycles uint64
		for ci, c := range w.cells {
			r := runCell(w, c, seed, nil, nil)
			// A cell that failed a check but returned a result still did
			// the work; one that panicked has nothing to time.
			if g.check(c, r); r.stats == nil {
				continue
			}
			setups[ci] = append(setups[ci], r.setup.Seconds())
			itWall += r.setup + r.run + r.verify
			itRun += r.run
			itCPU += r.cpu
			itAlloc += r.allocBytes
			itCycles += r.stats.Cycles
		}
		fmt.Fprintf(os.Stderr, "perfbench: repeat %d: wall %.4fs run %.4fs cpu %.4fs\n", len(wall)+1, itWall.Seconds(), itRun.Seconds(), itCPU.Seconds())
		wall = append(wall, itWall.Seconds())
		cpu = append(cpu, itCPU.Seconds())
		alloc = append(alloc, float64(itAlloc)/1e6)
		if itRun > 0 {
			rate = append(rate, float64(itCycles)/1e6/itRun.Seconds())
		}
	}
	var setup float64
	for _, s := range setups {
		setup += median(s)
	}
	return g.result(map[string]metric{
		"wall_s":            {median(wall), "s"},
		"setup_s":           {setup, "s"},
		"sim_mcycles_per_s": {median(rate), "Mcycles/s"},
		"cpu_s":             {median(cpu), "s"},
		"alloc_mb":          {median(alloc), "MB"},
		"peak_rss_mb":       {peakRSSMB(), "MB"},
	}), g.digests
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
