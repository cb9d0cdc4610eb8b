// interproc holds the shapes only the flow-sensitive, interprocedural v2
// can see: the load hides behind a lookup helper, the publication hides
// behind a helper that writes through its parameter, or the staleness
// only exists on a loop back edge. A source-order, same-function scan
// misses every positive here; the want comments pin what v2 reports.
package blockingcharge

import (
	"mem"
	"proto"
	"stats"
)

// lookupRec is a lookup helper: its summary records that the result is a
// map load of protocol state, so callers' locals are watched like an
// inline st.undiffed[pg].
func lookupRec(st *procState, pg int) *record {
	return st.undiffed[pg]
}

// publishRec is a publishing helper: its summary records the write
// through parameter 0, so passing a stale record here is a publication.
func publishRec(rec *record, pg int, d *mem.Diff) {
	rec.diffs[pg] = d
}

// doubleDiffRaceInterproc is the PR 2 double-diff race with both the load
// and the publication pushed behind helpers: invisible to the syntactic
// v1, caught by v2's summaries.
func doubleDiffRaceInterproc(c *proto.Ctx, st *procState, pg int, cost uint64) {
	rec := lookupRec(st, pg)
	d := &mem.Diff{Page: pg}
	c.P.Advance(cost, stats.Synch)
	publishRec(rec, pg, d) // want `call to publishRec publishes through rec \(map load st\.undiffed\[pg\] via lookupRec loaded at line \d+\) after a blocking charge at line \d+`
}

// helperPublishFreshOK passes the record to a publishing helper that does
// all its writing BEFORE its own blocking charge: the reference is still
// fresh at the write, so the call site is clean.
func helperPublishFreshOK(c *proto.Ctx, st *procState, pg int) {
	rec := st.undiffed[pg]
	publishThenCharge(c, rec, pg)
}

func publishThenCharge(c *proto.Ctx, rec *record, pg int) {
	rec.diffs[pg] = &mem.Diff{Page: pg}
	c.P.Advance(5, stats.Synch)
}

// stalePublishViaChargingHelper is the converse: the helper blocks first
// and publishes after, so a reference loaded before the call goes stale
// inside the helper before the write lands.
func stalePublishViaChargingHelper(c *proto.Ctx, st *procState, pg int) {
	rec := st.undiffed[pg]
	c.P.Advance(5, stats.Synch)
	chargeThenPublish(c, rec, pg) // want `call to chargeThenPublish publishes through rec \(map load st\.undiffed\[pg\] loaded at line \d+\) after a blocking charge at line \d+`
}

func chargeThenPublish(c *proto.Ctx, rec *record, pg int) {
	c.P.Advance(5, stats.Synch)
	rec.diffs[pg] = &mem.Diff{Page: pg}
}
