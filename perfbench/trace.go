package main

import (
	"encoding/json"
	"os"
	"time"

	"aecdsm/internal/trace"
)

// span is one timed interval of the traced run: a workload, a cell, or a
// cell's setup/run/verify phase. Parent is 0 for the workload span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the workload span opened
	End    int64  `json:"end_ns"`
}

// spans keeps every span in memory; write puts them out at the end so
// recording never does I/O inside a measured interval.
type spans struct {
	t0   time.Time
	list []span
}

func newSpans() *spans { return &spans{t0: time.Now()} }

// open starts a span and returns its id.
func (s *spans) open(parent int, name string) int {
	id := len(s.list) + 1
	now := time.Since(s.t0).Nanoseconds()
	s.list = append(s.list, span{ID: id, Parent: parent, Name: name, Start: now, End: now})
	return id
}

func (s *spans) close(id int) { s.list[id-1].End = time.Since(s.t0).Nanoseconds() }

// add records a finished span of known start and length, as the phases
// of a cell are timed inside runCell.
func (s *spans) add(parent int, name string, start time.Time, d time.Duration) {
	st := start.Sub(s.t0).Nanoseconds()
	s.list = append(s.list, span{ID: len(s.list) + 1, Parent: parent, Name: name, Start: st, End: st + d.Nanoseconds()})
}

// kindCounter is a counting sink on the simulator's public Tracer: events
// by TraceKind.
type kindCounter [256]uint64

func (k *kindCounter) Trace(ev trace.Event) { k[ev.Kind]++ }

func (k *kindCounter) total() uint64 {
	var n uint64
	for _, c := range k {
		n += c
	}
	return n
}

// byName returns the non-zero counts keyed by the kinds' wire names.
func (k *kindCounter) byName() map[string]uint64 {
	m := map[string]uint64{}
	for i, c := range k {
		if c > 0 {
			m[trace.Kind(i).String()] = c
		}
	}
	return m
}

// traceFile is the traced run's record, written as JSON at the end.
type traceFile struct {
	Host     hostRecord         `json:"host"`
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Spans    []span             `json:"spans"`
	Events   map[string]uint64  `json:"trace_events_by_kind"`
	Layers   map[string]float64 `json:"profile_self_s_by_layer"`
	Digests  map[string]string  `json:"digests"`
}

func (t *traceFile) write(path string) error {
	b, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
