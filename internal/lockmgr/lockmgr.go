// Package lockmgr is the lock manager every DSM protocol shares: one
// queued manager per lock variable (§3.2 of the paper), placed on a
// processor by MgrOf, that receives ownership requests and releases,
// asks the lock's grant policy (internal/lockpolicy, behind the LAP
// predictor) who gets the lock next, computes the LAP update set at
// grant time, and replicates every state change to a backup node so the
// manager survives crashes (docs/ROBUSTNESS.md).
//
// A protocol supplies only what differs between AEC, TreadMarks and
// Munin: its message handlers, which call HandleRequest and
// HandleRelease from the manager's service context, and the grant
// payload — one callback, bound at New, that tells the new holder how to
// bring its memory up to date (AEC: chain state, update set, pages to
// invalidate; TreadMarks: vector clocks, routed through the last
// releaser; Munin: the update set).
//
// Replication. Every state-changing manager action — a waiter enqueued,
// a grant issued, a release absorbed — is appended to the lock's
// replication log BEFORE the action takes effect, and a copy is shipped
// to the manager's backup node (memsys.BackupOf) over the reliable
// transport. When the manager crashes, the backup owns a prefix-complete
// log: replaying it rebuilds the wait queue (with the grant policy's
// bypass counters and lease tenure intact, via lockpolicy.Queue.Remove),
// the holder, and the consistency metadata the next acquirer needs.
//
// Modeling note — why the in-process log is authoritative. The simulator
// is single-threaded and manager handlers run to completion, so "append
// before effect" is trivially atomic here; the log-shipping message
// models the COST of synchronous replication (wire bytes, backup service
// time), not its content. A real implementation would block the manager
// until the backup acked the record, and the reliable transport's
// retransmission machinery already charges what that costs under faults.
// Keeping the log content in-process makes failover exact even when a
// log-shipping message is in flight at the instant of the crash — the
// alternative (reconstructing from possibly-truncated shipped state)
// would break the bit-identical results contract that internal/check
// enforces.
//
// Records log EFFECTS, not inputs: a release record carries the resulting
// update set and cumulative page list rather than the arguments that
// produced them, so replay never re-runs protocol logic whose other inputs
// (barrier phase, affinity oracle) may have moved on since the original
// decision. Grant records likewise name WHICH waiter was served, and
// replay removes exactly that waiter instead of re-asking the policy.
package lockmgr

import (
	"aecdsm/internal/lap"
	"aecdsm/internal/lockpolicy"
	"aecdsm/internal/memsys"
	"aecdsm/internal/proto"
	"aecdsm/internal/sim"
	"aecdsm/internal/stats"
	"aecdsm/internal/trace"
)

// Op is the kind of a replicated lock-manager action.
type Op uint8

const (
	// OpEnqueue records a waiter added to the lock's wait queue.
	OpEnqueue Op = iota
	// OpGrant records the lock granted to a processor; FromQueue says
	// whether the grantee was removed from the wait queue (false for an
	// immediate grant to a requester that never waited).
	OpGrant
	// OpRelease records the lock released, with the resulting
	// last-release metadata.
	OpRelease
)

// String names the operation for traces and test failures.
func (o Op) String() string {
	switch o {
	case OpEnqueue:
		return "enqueue"
	case OpGrant:
		return "grant"
	case OpRelease:
		return "release"
	}
	return "op?"
}

// Record is one replicated lock-manager action. The slices are snapshots
// owned by the log (journal copies them in, never aliases live state).
type Record struct {
	Op Op
	// Proc is the waiter (enqueue), grantee (grant) or releaser (release).
	Proc int
	// FromQueue marks a grant that consumed a queued waiter.
	FromQueue bool
	// Count is the grant's acquire count.
	Count int
	// US is the resulting update set (grant: the set handed to the
	// grantee; release: the set left behind for the next acquirer).
	US []int
	// Pages is the resulting cumulative page list at release.
	Pages []int
}

// Bytes is the modeled wire size of the record when shipped to the
// backup: a fixed header (lock id, op, proc, count, flags) plus one word
// per list element — the same flat encoding the protocols use for their
// own list-carrying messages.
func (r *Record) Bytes() int {
	return 16 + 8*(len(r.US)+len(r.Pages))
}

// Lock is the manager-side state of one lock variable. It lives in Go
// memory but is only touched by messages addressed to the managing node,
// so its costs land on the right processor.
type Lock struct {
	Pred *lap.Predictor

	Held   bool
	Holder int   // -1 when free
	Count  int   // acquire count of the newest grant
	US     []int // update set computed for the current holder

	LastReleaser int   // -1 before the first release
	LastCount    int   // Count of the last releaser's grant
	LastUS       []int // update set the last releaser pushed to
	CumPages     []int // cumulative merged page set of the chain (AEC)
}

// Config is what a protocol supplies to its lock manager.
type Config struct {
	// UseLAP computes an update set at every grant and accepts acquire
	// notices into the LAP virtual queue.
	UseLAP bool
	// Ns is the LAP update-set size.
	Ns int
	// AffinityFactor overrides LAP's affinity threshold (0 = default).
	AffinityFactor float64
	// NoticeKind and LogKind are the protocol's message kinds for acquire
	// notices and replication-log records.
	NoticeKind, LogKind int
	// Grant sends the protocol's grant payload to the new holder,
	// l.Holder. It runs in the manager's service context after the grant
	// has been journaled and applied to l.
	Grant func(s *sim.Svc, lock int, l *Lock)
	// OnCrash, when set, scrubs the protocol's own volatile state of a
	// crashed node after the managed locks have failed over, returning
	// the cycles that work costs.
	OnCrash func(node int) uint64
}

// Manager owns every lock variable of one protocol instance.
type Manager struct {
	e      *sim.Engine
	nprocs int
	cfg    Config
	locks  []Lock

	// logs holds each lock's replication log, armed only when the fault
	// schedule contains crashes. Nil means no replication traffic at all:
	// runs without crash faults are byte-identical to an unreplicated
	// manager.
	logs [][]Record
	// failoverCost accumulates, per crashed node, the failover work done
	// at the crash instant; the engine charges it to the node at restart.
	failoverCost map[int]uint64
}

// New builds the managers of numLocks locks on an engine, parsing its
// grant policy and, when the fault schedule can destroy a node, arming
// replication and the crash and restart hooks.
func New(e *sim.Engine, numLocks int, cfg Config) *Manager {
	pol, err := lockpolicy.Parse(e.Params.LockPolicy)
	if err != nil {
		panic("lockmgr: " + err.Error())
	}
	nprocs := len(e.Procs)
	m := &Manager{e: e, nprocs: nprocs, cfg: cfg, locks: make([]Lock, numLocks)}
	for i := range m.locks {
		p := lap.New(nprocs, cfg.Ns)
		p.SetPolicy(pol)
		if cfg.AffinityFactor > 0 {
			p.SetAffinityFactor(cfg.AffinityFactor)
		}
		if e.Tracer != nil {
			p.Tracer, p.Lock, p.Mgr, p.Clock = e.Tracer, i, m.MgrOf(i), e.Now
		}
		m.locks[i] = Lock{Pred: p, Holder: -1, LastReleaser: -1}
	}
	if e.Faults != nil && e.Faults.HasCrashes() {
		m.logs = make([][]Record, numLocks)
		m.failoverCost = map[int]uint64{}
		e.OnCrash(m.onCrash)
		e.OnRestart(m.onRestart)
	}
	return m
}

// MgrOf returns the managing processor of a lock: round-robin as in the
// paper, or hash-sharded under the scaling architecture, which
// decorrelates manager placement from application lock numbering
// (docs/SCALING.md).
func (m *Manager) MgrOf(lock int) int {
	if m.e.Params.ShardManagers {
		return memsys.ShardAssign(lock, m.nprocs)
	}
	return lock % m.nprocs
}

// NumLocks returns the number of lock variables managed.
func (m *Manager) NumLocks() int { return len(m.locks) }

// Lock returns the manager-side state of one lock.
func (m *Manager) Lock(lock int) *Lock { return &m.locks[lock] }

// LockLAP returns the LAP prediction statistics of one lock (Table 3 of
// the paper; passive under TreadMarks, for the §5.1 robustness study).
func (m *Manager) LockLAP(lock int) lap.Stats { return m.locks[lock].Pred.Stats }

// Notice implements proto.Protocol: it sends an acquire notice to the
// lock's manager, feeding the LAP virtual queue. Without LAP it is a
// no-op.
func (m *Manager) Notice(c *proto.Ctx, lock int) {
	if !m.cfg.UseLAP {
		return
	}
	m.e.SendFrom(c.P, stats.Synch, m.MgrOf(lock), m.cfg.NoticeKind, 8, lock, m.handleNotice)
}

func (m *Manager) handleNotice(s *sim.Svc, msg *sim.Msg) {
	s.ChargeList(1)
	m.locks[msg.Payload.(int)].Pred.Notice(msg.From)
}

// HandleRequest processes an ownership request from proc at the lock's
// manager: a busy lock queues the requester, a free one is granted at
// once.
func (m *Manager) HandleRequest(s *sim.Svc, lock, proc int) {
	l := &m.locks[lock]
	s.ChargeList(l.Pred.RequestElems())
	if l.Held {
		m.journal(s, lock, Record{Op: OpEnqueue, Proc: proc})
		l.Pred.Enqueue(proc)
		return
	}
	m.grant(s, lock, proc, false)
}

// HandleRelease processes a release by proc at the lock's manager, after
// the caller has charged the release message's list work. us and pages
// become the chain state the next acquirer inherits (nil for protocols
// without chains); the lock then passes to the waiter the grant policy
// picks, if any.
func (m *Manager) HandleRelease(s *sim.Svc, lock, proc int, us, pages []int) {
	l := &m.locks[lock]
	m.journal(s, lock, Record{Op: OpRelease, Proc: proc, US: us, Pages: pages})
	l.release(proc, us, pages)
	// GrantElems is 0 for the head-popping disciplines, so the default
	// charges nothing extra.
	s.ChargeList(l.Pred.GrantElems())
	if pk := l.Pred.PickNext(proc); pk.Proc >= 0 {
		if pk.Bypassed > 0 {
			s.P.Stats.GrantBypasses++
		}
		if pk.Renewal {
			s.P.Stats.LeaseRenewals++
		}
		m.grant(s, lock, pk.Proc, true)
	}
}

// grant hands the lock to proc, computing its LAP update set. fromQueue
// marks grants that consumed a queued waiter, which replay must know to
// remove it from the rebuilt queue.
func (m *Manager) grant(s *sim.Svc, lock, proc int, fromQueue bool) {
	l := &m.locks[lock]
	l.Pred.Granted(proc, l.LastReleaser)
	var us []int
	if m.cfg.UseLAP {
		us = l.Pred.UpdateSet(proc)
		s.ChargeList(len(us) + 1)
	}
	m.journal(s, lock, Record{Op: OpGrant, Proc: proc, FromQueue: fromQueue, Count: l.Count + 1, US: us})
	l.grant(proc, l.Count+1, us)
	m.cfg.Grant(s, lock, l)
}

// grant and release apply one action to the lock state; the live path
// and log replay share them, so a replayed lock is the live lock.
func (l *Lock) grant(proc, count int, us []int) {
	l.Held, l.Holder, l.Count, l.US = true, proc, count, us
}

func (l *Lock) release(proc int, us, pages []int) {
	l.Held, l.Holder = false, -1
	l.LastReleaser, l.LastCount, l.LastUS, l.CumPages = proc, l.Count, us, pages
	l.US = nil
}

// journal appends one record to the lock's replication log and ships it
// to the manager's backup over the reliable transport, charging the log
// append and the wire cost of synchronous replication. It runs before the
// recorded action takes effect, and snapshots the record's slices, which
// alias live lock state. Without crash faults it does nothing.
func (m *Manager) journal(s *sim.Svc, lock int, rec Record) {
	if m.logs == nil {
		return
	}
	rec.US = append([]int(nil), rec.US...)
	rec.Pages = append([]int(nil), rec.Pages...)
	m.logs[lock] = append(m.logs[lock], rec)
	n := rec.Bytes()
	mgr := s.P.ID
	s.P.Stats.ReplicaLogBytes += uint64(n)
	s.ChargeList(1)
	backup := memsys.BackupOf(mgr, m.nprocs)
	if t := s.E.Tracer; t != nil {
		ev := trace.Ev(s.Now, mgr, trace.KindReplicaLog)
		ev.Lock = lock
		ev.Arg, ev.Arg2 = int64(backup), int64(n)
		t.Trace(ev)
	}
	if backup != mgr {
		s.Send(backup, m.cfg.LogKind, n, rec, handleShip)
	}
}

// handleShip is the backup-side service routine for a shipped record: the
// append to the backup's journaled log is charged; the record content is
// authoritative in-process (package comment), so nothing else happens.
func handleShip(s *sim.Svc, m *sim.Msg) { s.ChargeList(1) }

// onCrash is the engine's crash hook. Every lock the crashed node manages
// is rebuilt from its log — a crash changes WHEN the manager answers
// (requests retry across the outage), never WHAT it answers; grants in
// flight at the crash are re-driven by the reliable transport, not here.
// The protocol's own scrub runs next. The replay work, the protocol's
// scrub and one failover trap are charged at restart.
func (m *Manager) onCrash(node int) {
	pp := &m.e.Params
	cost := pp.InterruptCycles // failover trap at the backup
	for lock := range m.locks {
		if m.MgrOf(lock) != node {
			continue
		}
		l := &m.locks[lock]
		l.replay(m.logs[lock])
		cost += pp.ListCycles(1 + len(m.logs[lock]))
	}
	if m.cfg.OnCrash != nil {
		cost += m.cfg.OnCrash(node)
	}
	m.failoverCost[node] += cost
}

// onRestart is the engine's restart hook: it surrenders the accumulated
// failover cost, which the engine charges to the restarted node.
func (m *Manager) onRestart(node int) uint64 {
	c := m.failoverCost[node]
	delete(m.failoverCost, node)
	return c
}

// replay rebuilds the lock from its log. The wait queue restarts empty
// under the same policy; the predictor's own knowledge (virtual queue,
// affinity, statistics) rides the replication stream and survives.
func (l *Lock) replay(recs []Record) {
	l.Pred.RecoverReset()
	*l = Lock{Pred: l.Pred, Holder: -1, LastReleaser: -1}
	for i := range recs {
		rec := &recs[i]
		switch rec.Op {
		case OpEnqueue:
			l.Pred.RecoverEnqueue(rec.Proc)
		case OpGrant:
			if rec.FromQueue {
				l.Pred.RecoverRemove(rec.Proc)
			}
			l.grant(rec.Proc, rec.Count, rec.US)
		case OpRelease:
			l.release(rec.Proc, rec.US, rec.Pages)
		}
	}
}
