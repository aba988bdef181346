package main

import (
	"sort"
	"sync/atomic"
	"time"
)

// span is one timed call the harness made into a layer.  Spans live in
// memory until the run ends and are then written to the trace file.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"` // the span that caused this one
	Op     int    `json:"op"`               // index into the op list; -1 outside it
	Name   string `json:"name"`
	Start  int64  `json:"startNs"` // since the recorder's epoch
	End    int64  `json:"endNs"`
	// Replay marks a span measured in a later in-process replay of the
	// parent's operation rather than inside the parent's own interval: the
	// harness cannot see into the servers, so it re-runs the same layer
	// call directly and attributes that time to the parent.
	Replay bool `json:"replay,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// spanLog collects the spans of one goroutine; IDs come from the shared
// recorder so they are unique across logs.
type spanLog struct {
	rec   *recorder
	spans []span
}

// recorder hands out span IDs and the common time base.  A nil *recorder
// (untraced run) makes begin return a nil log whose methods do nothing.
type recorder struct {
	epoch time.Time
	next  atomic.Int64
	logs  []*spanLog
	// paused stops recording (begin returns -1) while the harness keeps
	// measuring: spans of one lap are enough to attribute time, the laps
	// after it only add samples.  Set it between laps, not during one.
	paused bool
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// log returns a new per-goroutine span log.  Call it before starting the
// goroutines that use it.
func (r *recorder) log() *spanLog {
	if r == nil {
		return nil
	}
	l := &spanLog{rec: r}
	r.logs = append(r.logs, l)
	return l
}

// all returns every recorded span ordered by ID.
func (r *recorder) all() []span {
	var out []span
	for _, l := range r.logs {
		out = append(out, l.spans...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// begin opens a span and returns its index in the log for end.
func (l *spanLog) begin(name string, parent int64, op int, replay bool) int {
	if l == nil || l.rec.paused {
		return -1
	}
	l.spans = append(l.spans, span{
		ID: l.rec.next.Add(1), Parent: parent, Op: op, Name: name, Replay: replay,
		Start: int64(time.Since(l.rec.epoch)),
	})
	return len(l.spans) - 1
}

// end closes the span begin returned.
func (l *spanLog) end(i int) {
	if i >= 0 {
		l.spans[i].End = int64(time.Since(l.rec.epoch))
	}
}

// id is the ID of the span begin returned, for use as a parent.
func (l *spanLog) id(i int) int64 {
	if i < 0 {
		return 0
	}
	return l.spans[i].ID
}

// selfTimes returns, per span ID, the span's duration minus the part its
// children account for: the union of the intervals of children that ran
// inside it, plus the summed durations of replayed children.  The result
// is never negative.
func selfTimes(spans []span) map[int64]int64 {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered int64
		edge := s.Start // everything before edge is already counted
		for _, k := range kids {
			if k.Replay {
				covered += k.dur()
				continue
			}
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = max(s.dur()-covered, 0)
	}
	return self
}
