package lockmgr

import (
	"reflect"
	"testing"

	"aecdsm/internal/fault"
	"aecdsm/internal/lap"
	"aecdsm/internal/lockpolicy"
	"aecdsm/internal/memsys"
	"aecdsm/internal/sim"
	"aecdsm/internal/stats"
)

func TestReplayRebuildsQueueAndImage(t *testing.T) {
	// p2 grabs the lock immediately, p0 and p1 queue up, p2 releases, p0
	// is granted from the queue and still holds it at crash time.
	recs := []Record{
		{Op: OpGrant, Proc: 2, Count: 1, US: []int{4, 5}},
		{Op: OpEnqueue, Proc: 0},
		{Op: OpEnqueue, Proc: 1},
		{Op: OpRelease, Proc: 2, US: []int{4, 5, 9}, Pages: []int{4, 5, 9}},
		{Op: OpGrant, Proc: 0, FromQueue: true, Count: 2, US: []int{1}},
	}
	l := &Lock{Pred: lap.New(3, 2)}
	l.replay(recs)
	if !l.Held || l.Holder != 0 || l.Count != 2 {
		t.Fatalf("image = %+v, want held by 0 count 2", l)
	}
	if want := []int{1}; !reflect.DeepEqual(l.US, want) {
		t.Fatalf("holder US = %v, want %v", l.US, want)
	}
	if l.LastReleaser != 2 || l.LastCount != 1 {
		t.Fatalf("last release = %+v, want releaser 2 count 1", l)
	}
	if want := []int{4, 5, 9}; !reflect.DeepEqual(l.LastUS, want) || !reflect.DeepEqual(l.CumPages, want) {
		t.Fatalf("chain = %v/%v, want %v", l.LastUS, l.CumPages, want)
	}
	if w := l.Pred.Waiters(nil); len(w) != 1 || w[0] != 1 {
		t.Fatalf("rebuilt waiters = %v, want [1]", w)
	}

	// Replaying a shorter log resets everything the longer one built.
	l.replay(recs[:4])
	if l.Held || l.Holder != -1 || l.US != nil || l.LastReleaser != 2 {
		t.Fatalf("idle image = %+v, want free, last releaser 2", l)
	}
	if w := l.Pred.Waiters(nil); !reflect.DeepEqual(w, []int{0, 1}) {
		t.Fatalf("rebuilt waiters = %v, want [0 1]", w)
	}
}

func TestReplayEmptyLog(t *testing.T) {
	l := &Lock{Pred: lap.New(2, 1), Held: true, Holder: 1, LastReleaser: 0}
	l.replay(nil)
	if l.Held || l.Holder != -1 || l.LastReleaser != -1 || l.Pred.QueueLen() != 0 {
		t.Fatalf("empty-log image = %+v, want pristine", l)
	}
}

func TestRecordBytes(t *testing.T) {
	r := Record{Op: OpGrant, Proc: 2, US: []int{1, 2, 3}, Pages: []int{9}}
	if got, want := r.Bytes(), 16+8*4; got != want {
		t.Fatalf("Bytes() = %d, want %d", got, want)
	}
}

func TestOpString(t *testing.T) {
	for op, want := range map[Op]string{OpEnqueue: "enqueue", OpGrant: "grant", OpRelease: "release", Op(9): "op?"} {
		if got := op.String(); got != want {
			t.Fatalf("Op(%d).String() = %q, want %q", op, got, want)
		}
	}
}

// rig is one manager on an engine whose fault schedule arms replication.
// It is driven by calling the service routines directly; the engine never
// runs, so sends only queue events.
type rig struct {
	e      *sim.Engine
	m      *Manager
	grants []int
}

const rigProcs = 6

func newRig(t *testing.T, k lockpolicy.Kind) *rig {
	t.Helper()
	p := memsys.Default().ForProcs(rigProcs)
	p.LockPolicy = string(k)
	e := sim.New(p, stats.NewRun("script", "lockmgr", rigProcs))
	e.EnableFaults(fault.Config{Crashes: []fault.Crash{{Node: 0, At: 1 << 40, Down: 1}}})
	r := &rig{e: e}
	r.m = New(e, 2, Config{UseLAP: true, Ns: 2, LogKind: 1,
		Grant: func(s *sim.Svc, lock int, l *Lock) { r.grants = append(r.grants, l.Holder) }})
	return r
}

// svc is the service context of the lock's manager.
func (r *rig) svc(lock int) *sim.Svc {
	return &sim.Svc{E: r.e, P: r.e.Procs[r.m.MgrOf(lock)]}
}

func (r *rig) request(lock, proc int) { r.m.HandleRequest(r.svc(lock), lock, proc) }

// release lets the current holder go, leaving its update set and a page
// list derived from the step behind, as AEC does.
func (r *rig) release(lock, step int) {
	l := r.m.Lock(lock)
	r.m.HandleRelease(r.svc(lock), lock, l.Holder, l.US, []int{step, step + 7})
}

// snapshot is everything replay must reproduce, with empty slices
// normalized to nil.
type snapshot struct {
	Held                        bool
	Holder, Count               int
	US                          []int
	LastReleaser, LastCount     int
	LastUS, CumPages, Waiters   []int
	Acquires, Evaluated, HitsUS uint64
}

func snap(l *Lock) snapshot {
	c := func(s []int) []int { return append([]int(nil), s...) }
	return snapshot{
		Held: l.Held, Holder: l.Holder, Count: l.Count, US: c(l.US),
		LastReleaser: l.LastReleaser, LastCount: l.LastCount,
		LastUS: c(l.LastUS), CumPages: c(l.CumPages), Waiters: l.Pred.Waiters(nil),
		Acquires: l.Pred.Stats.Acquires, Evaluated: l.Pred.Stats.Evaluated, HitsUS: l.Pred.Stats.HitFull,
	}
}

// script drives lock 0 (managed by node 0) through immediate and queued
// grants, a lease renewal, an affinity bypass and an idle period, and
// ends with the lock held and four waiters queued. Lock 1 lives on node 1
// and sees traffic too.
func script(r *rig) {
	for _, q := range []int{3, 5} {
		r.m.handleNotice(r.svc(0), &sim.Msg{From: q, Payload: 0})
	}
	r.request(1, 4)
	for _, q := range []int{1, 2, 3} {
		r.request(0, q)
	}
	r.release(0, 1)
	r.request(0, 4)
	for step := 2; step <= 4; step++ {
		r.release(0, step)
	}
	for _, q := range []int{1, 5, 4} {
		r.request(0, q)
	}
	r.release(0, 5)
	for _, q := range []int{1, 2, 3} {
		r.request(0, q)
	}
	r.release(1, 9)
}

// TestFailoverMatchesLive crashes a lock's manager while waiters are
// queued, under every grant policy: the lock replayed from the
// replication log must equal the live lock, the rest of the run must
// grant in the same order as an uncrashed manager (the policy's hidden
// bypass and lease bookkeeping survived), and the crash costs exactly one
// failover trap plus the replay.
func TestFailoverMatchesLive(t *testing.T) {
	for _, k := range lockpolicy.Kinds() {
		t.Run(string(k), func(t *testing.T) {
			live, crashed := newRig(t, k), newRig(t, k)
			script(live)
			script(crashed)
			if !reflect.DeepEqual(live.grants, crashed.grants) {
				t.Fatalf("scripts diverged before the crash: %v vs %v", live.grants, crashed.grants)
			}
			before := snap(crashed.m.Lock(0))
			if !before.Held || len(before.Waiters) != 4 {
				t.Fatalf("script left %+v, want held with 4 waiters", before)
			}
			other := snap(crashed.m.Lock(1))
			st := &crashed.e.Run.Procs[0]
			if (k == lockpolicy.Affinity && st.GrantBypasses == 0) || (k == lockpolicy.Lease && st.LeaseRenewals == 0) {
				t.Fatalf("script never reordered a grant under %s", k)
			}

			crashed.m.onCrash(0)
			if got := snap(crashed.m.Lock(0)); !reflect.DeepEqual(got, before) {
				t.Fatalf("replayed lock differs from live lock:\n got  %+v\n want %+v", got, before)
			}
			if got := snap(crashed.m.Lock(1)); !reflect.DeepEqual(got, other) {
				t.Fatalf("crash of node 0 touched lock 1 (managed by node 1)")
			}
			pp := &crashed.e.Params
			want := pp.InterruptCycles + pp.ListCycles(1+len(crashed.m.logs[0]))
			if got := crashed.m.onRestart(0); got != want {
				t.Fatalf("failover cost = %d, want %d (one trap + replay)", got, want)
			}
			if st.ReplicaLogBytes == 0 {
				t.Fatal("manager shipped no replication records")
			}

			n := len(live.grants)
			for step := 5; step < 9; step++ {
				live.release(0, step)
				crashed.release(0, step)
			}
			if !reflect.DeepEqual(live.grants[n:], crashed.grants[n:]) {
				t.Fatalf("grants after failover = %v, want %v", crashed.grants[n:], live.grants[n:])
			}
			if got, want := snap(crashed.m.Lock(0)), snap(live.m.Lock(0)); !reflect.DeepEqual(got, want) {
				t.Fatalf("drained lock differs:\n got  %+v\n want %+v", got, want)
			}
		})
	}
}
