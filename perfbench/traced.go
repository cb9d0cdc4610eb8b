package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"time"

	"aecdsm/internal/stats"
	"aecdsm/internal/trace"
)

// traceRun is the traced run of a workload. Pass one runs every cell as
// the untraced run does, inside spans, with the CPU profiler on over each
// run phase. Pass two runs every cell again with a counting sink and a
// TraceMetrics on the simulator's Tracer; its digests must equal pass
// one's, and its extra time is trace.overhead_s. The per-layer metrics
// are the profile rolled up by layer, the span totals, runtime counters
// of pass one, and the stats.Run counts summed over the cells.
func traceRun(w workload, seed uint64, host hostRecord) (*result, map[string]uint64, error) {
	g := newGate()
	sp := newSpans()
	wid := sp.open(0, "workload "+w.name)

	var profiles []string
	var profErr error
	var profFile *os.File
	hook := func(start bool) {
		var err error
		if !start {
			pprof.StopCPUProfile()
			err = profFile.Close()
		} else {
			path := filepath.Join(workdir, fmt.Sprintf("cpu-%s-%d.pprof", w.name, len(profiles)))
			if profFile, err = os.Create(path); err == nil {
				profiles = append(profiles, path)
				err = pprof.StartCPUProfile(profFile)
			}
		}
		if err != nil && profErr == nil {
			profErr = err
		}
	}

	var setupS, runS, verifyS float64
	var allocObjects, gcCycles uint64
	var gcCPU float64
	var runs []*stats.Run
	calls := map[string]time.Duration{}
	for _, c := range w.cells {
		cid := sp.open(wid, "cell "+c.String())
		r := runCell(w, c, seed, nil, hook)
		sp.add(cid, "setup", r.setupAt, r.setup)
		sp.add(cid, "run", r.runAt, r.run)
		sp.add(cid, "verify", r.verifyAt, r.verify)
		sp.close(cid)
		if profErr != nil {
			return nil, nil, fmt.Errorf("cpu profile: %w", profErr)
		}
		if g.check(c, r); r.stats == nil {
			continue
		}
		setupS += r.setup.Seconds()
		runS += r.run.Seconds()
		verifyS += r.verify.Seconds()
		allocObjects += r.allocObjects
		gcCycles += r.gcCycles
		gcCPU += r.gcCPU
		runs = append(runs, r.stats)
		calls[c.String()] = r.call
	}

	var kinds kindCounter
	var lapHits, lapPreds uint64
	var overhead time.Duration
	for _, c := range w.cells {
		cid := sp.open(wid, "traced cell "+c.String())
		tm := trace.NewMetrics() // per cell: lock and page ids repeat across apps
		r := runCell(w, c, seed, trace.Multi(&kinds, tm), nil)
		sp.add(cid, "run", r.runAt, r.run)
		sp.add(cid, "verify", r.verifyAt, r.verify)
		sp.close(cid)
		if g.check(c, r); r.stats == nil {
			continue
		}
		if base, ok := calls[c.String()]; ok {
			overhead += r.call - base
		}
		for _, l := range tm.Summary().Locks {
			lapHits += l.PredHits
			lapPreds += l.PredHits + l.PredMiss
		}
	}
	sp.close(wid)

	byLayer, err := profileLayers(profiles)
	if err != nil {
		return nil, nil, err
	}
	m := map[string]metric{
		"span.setup_s":     {setupS, "s"},
		"span.run_s":       {runS, "s"},
		"span.verify_s":    {verifyS, "s"},
		"trace.overhead_s": {overhead.Seconds(), "s"},
		"trace.events":     {float64(kinds.total()), "count"},
		"rt.alloc_objects": {float64(allocObjects), "count"},
		"rt.gc_cycles":     {float64(gcCycles), "count"},
		"rt.gc_cpu_s":      {gcCPU, "s"},
		"lap.hit_rate":     {ratio(lapHits, lapPreds), "ratio"},
	}
	for _, l := range layers {
		m["host."+l+"_s"] = metric{byLayer[l], "s"}
	}
	simCounts(m, runs)
	m["host.ns_per_msg"] = metric{ratioF(runS*1e9, m["net.msgs"].Value), "ns"}

	for _, err := range zeroChecks(w, m) {
		g.fail(err)
	}

	tf := traceFile{
		Host: host, Workload: w.name, Seed: seed, Spans: sp.list,
		Events: kinds.byName(), Layers: byLayer, Digests: hexDigests(g.digests),
	}
	if err := tf.write(filepath.Join(workdir, fmt.Sprintf("trace-%s-seed%d.json", w.name, seed))); err != nil {
		return nil, nil, err
	}
	return g.result(m), g.digests, nil
}

// zeroChecks returns a failure for every dormant layer that shows work:
// host.tm_s and host.munin_s without a TM or Munin cell, and the fault.*
// and recover.* counts on a fault-free workload.
func zeroChecks(w workload, m map[string]metric) []error {
	var names []string
	if !w.has("TM") {
		names = append(names, "host.tm_s")
	}
	if !w.has("Munin") {
		names = append(names, "host.munin_s")
	}
	if w.faults == "" {
		names = append(names, "fault.drops", "fault.retransmits", "fault.acks",
			"fault.dups_suppressed", "fault.lap_fallbacks",
			"recover.replica_log_bytes", "recover.failover_cyc", "recover.orphan_invals")
	}
	var errs []error
	for _, n := range names {
		if v := m[n].Value; v != 0 {
			errs = append(errs, fmt.Errorf("%s: %s = %g, want 0 on this workload", w.name, n, v))
		}
	}
	return errs
}

// simCounts adds the simulated statistics summed over the cells. They are
// deterministic: a change that only speeds up the simulator leaves them
// identical.
func simCounts(m map[string]metric, runs []*stats.Run) {
	sum := func(f func(p *stats.Proc) uint64) uint64 {
		var t uint64
		for _, r := range runs {
			t += r.Sum(f)
		}
		return t
	}
	count := func(name string, f func(p *stats.Proc) uint64) {
		m[name] = metric{float64(sum(f)), "count"}
	}
	cyc := func(name string, f func(p *stats.Proc) uint64) {
		m[name] = metric{float64(sum(f)), "cycles"}
	}
	var cycles uint64
	var bd stats.Breakdown
	for _, r := range runs {
		cycles += r.Cycles
		tb := r.TotalBreakdown()
		bd.AddAll(&tb)
	}
	m["sim.cycles"] = metric{float64(cycles), "cycles"}
	for c := stats.Category(0); c < stats.NumCategories; c++ {
		m["sim."+c.String()+"_cyc"] = metric{float64(bd[c]), "cycles"}
	}

	msgs := sum(func(p *stats.Proc) uint64 { return p.MsgsSent })
	m["net.msgs"] = metric{float64(msgs), "count"}
	m["net.bytes"] = metric{float64(sum(func(p *stats.Proc) uint64 { return p.BytesSent })), "bytes"}
	count("proto.read_faults", func(p *stats.Proc) uint64 { return p.ReadFaults })
	count("proto.write_faults", func(p *stats.Proc) uint64 { return p.WriteFaults })
	count("proto.page_fetches", func(p *stats.Proc) uint64 { return p.PageFetches })
	count("memsys.cache_misses", func(p *stats.Proc) uint64 { return p.CacheMisses })
	count("memsys.tlb_misses", func(p *stats.Proc) uint64 { return p.TLBMisses })
	count("mem.diffs_created", func(p *stats.Proc) uint64 { return p.DiffsCreated })
	m["mem.diff_bytes"] = metric{float64(sum(func(p *stats.Proc) uint64 { return p.DiffBytesCreated })), "bytes"}
	count("mem.diffs_merged", func(p *stats.Proc) uint64 { return p.DiffsMerged })
	count("mem.diffs_applied", func(p *stats.Proc) uint64 { return p.DiffsApplied })
	cyc("mem.twin_cyc", func(p *stats.Proc) uint64 { return p.TwinCycles })
	pushed := sum(func(p *stats.Proc) uint64 { return p.UpdatesPushed })
	useless := sum(func(p *stats.Proc) uint64 { return p.UselessUpdates })
	m["lap.updates_pushed"] = metric{float64(pushed), "count"}
	m["lap.useless_updates"] = metric{float64(useless), "count"}
	m["lap.push_useful_ratio"] = metric{ratio(pushed-min(useless, pushed), pushed), "ratio"}
	count("lock.acquires", func(p *stats.Proc) uint64 { return p.LockAcquires })
	count("lock.grant_bypasses", func(p *stats.Proc) uint64 { return p.GrantBypasses })
	count("tm.write_notices", func(p *stats.Proc) uint64 { return p.WriteNoticesSent })
	count("tm.diff_requests", func(p *stats.Proc) uint64 { return p.DiffRequests })
	count("tm.invalidations", func(p *stats.Proc) uint64 { return p.Invalidations })
	count("fault.drops", func(p *stats.Proc) uint64 { return p.MsgsDropped })
	count("fault.retransmits", func(p *stats.Proc) uint64 { return p.Retransmits })
	count("fault.acks", func(p *stats.Proc) uint64 { return p.AcksSent })
	count("fault.dups_suppressed", func(p *stats.Proc) uint64 { return p.DupMsgsSuppressed })
	count("fault.lap_fallbacks", func(p *stats.Proc) uint64 { return p.LAPFallbacks })
	m["recover.replica_log_bytes"] = metric{float64(sum(func(p *stats.Proc) uint64 { return p.ReplicaLogBytes })), "bytes"}
	cyc("recover.failover_cyc", func(p *stats.Proc) uint64 { return p.FailoverCycles })
	count("recover.orphan_invals", func(p *stats.Proc) uint64 { return p.OrphanInvalidations })

	// Golab's remote references per synchronization operation: messages
	// per lock acquire or barrier arrival.
	syncs := sum(func(p *stats.Proc) uint64 { return p.LockAcquires + p.BarrierArrivals })
	m["net.msgs_per_sync"] = metric{ratio(msgs, syncs), "ratio"}
}

func ratio(a, b uint64) float64 { return ratioF(float64(a), float64(b)) }

// ratioF is a/b, and 0 when b is 0 (a ratio over no events).
func ratioF(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// profileLayers rolls the CPU profiles of the run phases up by layer with
// `go tool pprof -top`, which merges several profiles into one table.
func profileLayers(files []string) (map[string]float64, error) {
	args := append([]string{"tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", "-edgefraction=0"}, files...)
	cmd := exec.Command("go", args...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, errb.Bytes())
	}
	return rollUp(&out)
}

func hexDigests(d map[string]uint64) map[string]string {
	out := make(map[string]string, len(d))
	for k, v := range d {
		out[k] = fmt.Sprintf("%016x", v)
	}
	return out
}
