package main

import (
	"fmt"
	"hash/fnv"
	"runtime/debug"
	"time"

	"aecdsm"
	"aecdsm/internal/fault"
	"aecdsm/internal/harness"
	"aecdsm/internal/proto"
	"aecdsm/internal/stats"
	"aecdsm/internal/trace"
)

// scale is the paper's problem size: every cell runs the Table 1 machine
// (16 processors) on the full-size inputs, as cmd/tables -scale 1.0 does.
const scale = 1.0

// crashSchedule is the fault schedule of the faulted workload: 2% drops
// plus two mid-run node crashes, the crash row of results/recovery_sweep.txt.
const crashSchedule = "drop=0.02,crash=2@2000000:500000,crash=5@5000000:500000"

// committedFaultSeed is the fault seed of the committed recovery sweep;
// seed 0 of the benchmark reproduces it.
const committedFaultSeed = 11

// cell is one app×protocol simulation of a workload.
type cell struct{ app, protocol string }

func (c cell) String() string { return c.app + "/" + c.protocol }

// workload is a fixed set of cells run one after another in one process.
// The cells, not the problem scale, size a workload: Scale is coarse
// (Water-ns at 0.5 runs the 1.0 problem), so each workload picks the
// paper-scale cells that put one layer of the stack in front.
type workload struct {
	name   string
	cells  []cell
	faults string // fault.ParseSpec clause list; "" = fault-free
}

func cellsOf(appNames []string, protocol string) []cell {
	cs := make([]cell, len(appNames))
	for i, a := range appNames {
		cs[i] = cell{a, protocol}
	}
	return cs
}

// workloads are the benchmark's workloads; README.md says why each was
// chosen and which layers it loads.
var workloads = []workload{
	// The paper's lock (LAP) apps under AEC: coroutine handoff, aec
	// locks, lap and lockpolicy.
	{name: "lock-aec", cells: cellsOf(harness.LockApps(), "AEC")},
	// The barrier apps under AEC: twin/diff allocation in mem, and GC.
	{name: "barrier-aec", cells: cellsOf(harness.BarrierApps(), "AEC")},
	// The lock apps under TM: differs from lock-aec only in the protocol.
	{name: "lock-tm", cells: cellsOf(harness.LockApps(), "TM")},
	// Water-ns with drops and crashes: reliable transport, fault and
	// recover, and the only Munin cell.
	{name: "faulted-crash", cells: []cell{{"Water-ns", "AEC"}, {"Water-ns", "Munin"}}, faults: crashSchedule},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// has reports whether any cell of w runs under protocol.
func (w workload) has(protocol string) bool {
	for _, c := range w.cells {
		if c.protocol == protocol {
			return true
		}
	}
	return false
}

// instance is one freshly built program and protocol for a cell. The
// benchmark seed feeds the app's base seed (0 keeps the committed
// streams) and the fault seed.
type instance struct {
	prog proto.Program
	pr   proto.Protocol
	fcfg *fault.Config
}

func newInstance(w workload, c cell, seed uint64) (instance, error) {
	prog, err := aecdsm.NewAppSeeded(c.app, scale, seed)
	if err != nil {
		return instance{}, err
	}
	pr, err := aecdsm.NewProtocol(c.protocol, 2)
	if err != nil {
		return instance{}, err
	}
	in := instance{prog: prog, pr: pr}
	if w.faults != "" {
		fc, err := fault.ParseSpec(w.faults)
		if err != nil {
			return instance{}, err
		}
		fc.Seed = committedFaultSeed + seed
		in.fcfg = &fc
	}
	return in, nil
}

// cellRun is the measurement of one cell execution.
type cellRun struct {
	setupAt, runAt, verifyAt time.Time
	setup, run, verify       time.Duration
	// call is the time of the harness calls that turned the cell's
	// inputs into its result: compose plus run, without a compose made
	// only to time setup. Traced and untraced calls compare on it.
	call         time.Duration
	cpu          time.Duration // user+sys over the cell
	allocBytes   uint64
	allocObjects uint64
	gcCycles     uint64
	gcCPU        float64 // seconds
	stats        *stats.Run
	digest       uint64
	err          error
}

// runCell composes, runs and verifies one cell, timing each phase from
// outside the simulator. A fault-free cell is composed with
// harness.NewSession and run by its Finish. A faulted cell is run by
// harness.RunFaultTraced, which composes and runs in one call; its setup
// phase times a fault-free compose of the same cell that is then thrown
// away. With a non-nil tr every cell runs through RunFaultTraced with
// that tracer and has no setup phase. hook, when non-nil, brackets the
// run phase (the traced run's CPU profile). A panic, deadlock or failed
// self-check becomes err; the caller goes on with the other cells.
func runCell(w workload, c cell, seed uint64, tr trace.Tracer, hook func(start bool)) (r cellRun) {
	// Collect the last cell's garbage and return all free memory to the
	// OS, so every cell starts from the same heap and pays the same page
	// faults, whatever the background scavenger got round to.
	debug.FreeOSMemory()
	before := sampleHost()
	defer func() {
		if p := recover(); p != nil {
			r.err = fmt.Errorf("%s: %v", c, p)
		}
		after := sampleHost()
		r.cpu = after.cpu - before.cpu
		r.allocBytes = after.allocBytes - before.allocBytes
		r.allocObjects = after.allocObjects - before.allocObjects
		r.gcCycles = after.gcCycles - before.gcCycles
		r.gcCPU = after.gcCPU - before.gcCPU
	}()

	in, err := newInstance(w, c, seed)
	if err != nil {
		return cellRun{err: err}
	}
	params := aecdsm.DefaultParams()
	direct := tr != nil || in.fcfg != nil
	t0 := time.Now()
	var sess *harness.Session
	if tr == nil {
		sess = harness.NewSession(params, in.pr, in.prog)
	}
	t1 := time.Now()
	if direct && sess != nil {
		sess = nil // never started, so it holds no goroutines
		if in, err = newInstance(w, c, seed); err != nil {
			return cellRun{err: err}
		}
	}
	var t2, t3 time.Time
	res := func() *harness.Result {
		if hook != nil {
			hook(true)
			defer hook(false) // also when Finish panics on a failed check
		}
		t2 = time.Now()
		defer func() { t3 = time.Now() }()
		if sess != nil {
			return sess.Finish()
		}
		return harness.RunFaultTraced(params, in.pr, in.prog, tr, in.fcfg)
	}()
	t4 := time.Now()
	switch {
	case res.SplitErr != nil:
		r.err = fmt.Errorf("%s: %v", c, res.SplitErr)
	case res.Deadlocked:
		r.err = fmt.Errorf("%s deadlocked", c)
	case res.VerifyErr != nil:
		r.err = fmt.Errorf("%s failed verification: %v", c, res.VerifyErr)
	}
	r.stats = res.Run
	r.digest = digest(res.Run)
	r.setupAt, r.runAt, r.verifyAt = t0, t2, t4
	r.setup, r.run, r.verify = t1.Sub(t0), t3.Sub(t2), time.Since(t4)
	r.call = r.run
	if !direct {
		r.call += r.setup
	}
	return r
}

// digest hashes every field of a run's statistics. Two runs of the same
// cell and seed must agree on it whatever the host did.
func digest(run *stats.Run) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", *run)
	return h.Sum64()
}

// composeOnly times a setup-only compose of a cell (protocol, app Init,
// engine, Attach) and throws the unstarted session away.
func composeOnly(w workload, c cell, seed uint64) (d time.Duration, err error) {
	debug.FreeOSMemory() // as in runCell
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%s: %v", c, p)
		}
	}()
	in, err := newInstance(w, c, seed)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	harness.NewSession(aecdsm.DefaultParams(), in.pr, in.prog)
	return time.Since(t0), nil
}
