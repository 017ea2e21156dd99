package main

import (
	"eventsys/internal/event"
	"eventsys/internal/filter"
)

// filterSet is one subscriber ID's filters as the broker's routing table
// holds them: a set keyed by filter identity, matched with the paper's
// reference semantics (Filter.Matches, as the naive Figure 6 table does).
type filterSet struct {
	byKey map[string]*filter.Filter
	order []*filter.Filter
}

func newFilterSet(fs []*filter.Filter) *filterSet {
	s := &filterSet{byKey: make(map[string]*filter.Filter)}
	for _, f := range fs {
		s.add(f)
	}
	return s
}

func (s *filterSet) add(f *filter.Filter) {
	if _, ok := s.byKey[f.Key()]; ok {
		return
	}
	s.byKey[f.Key()] = f
	s.order = append(s.order, f)
}

// matches reports whether any filter of the set matches e.
func (s *filterSet) matches(e event.View) bool {
	for _, f := range s.order {
		if f.Matches(e, nil) {
			return true
		}
	}
	return false
}

// delivery is one event received by the measured subscriber.
type delivery struct {
	id uint64
	at int64 // ns since the run's clock origin
}

// verdict counts the oracle's findings for one subscriber.
type verdict struct {
	Expected    int // deliveries the original filters demand
	Delivered   int // deliveries received (excess weakened ones included)
	Missing     int // demanded but never received
	Duplicate   int // received more than once
	Reordered   int // received after an event published later (per-source FIFO)
	Unexpected  int // not published, or outside even the stored (weakened) filters
	BacklogLate int // catchup: live events delivered before the last backlog event
}

func (v verdict) failures() int {
	return v.Missing + v.Duplicate + v.Reordered + v.Unexpected + v.BacklogLate
}

// checkSpec describes what one subscriber should have received. All
// events come from one publisher, so per-source FIFO means IDs arrive in
// increasing order.
type checkSpec struct {
	published func(id uint64) bool // the ID was published without error
	must      func(id uint64) bool // the original filters match the event
	may       func(id uint64) bool // the stored (weakened) filters match the event
	ids       []uint64             // every ID that must be considered for Missing
	// backlog, when hi > lo, is the ID range [lo, hi) stored while the
	// subscriber was away; every ID at or above hi is live afterwards.
	backlogLo, backlogHi uint64
}

// check compares the received sequence with the expectation.
func check(spec checkSpec, got []delivery) verdict {
	var v verdict
	seen := make(map[uint64]bool, len(got))
	var maxID uint64
	lastBacklog, firstLive := -1, -1
	for i, d := range got {
		v.Delivered++
		if seen[d.id] {
			v.Duplicate++
			continue
		}
		seen[d.id] = true
		if !spec.published(d.id) {
			v.Unexpected++
			continue // no place in the publisher's order
		}
		if !spec.may(d.id) {
			v.Unexpected++
		}
		if d.id < maxID {
			v.Reordered++
		} else {
			maxID = d.id
		}
		if spec.backlogHi > spec.backlogLo {
			switch {
			case d.id >= spec.backlogLo && d.id < spec.backlogHi:
				lastBacklog = i
			case d.id >= spec.backlogHi && firstLive < 0:
				firstLive = i
			}
		}
	}
	for _, id := range spec.ids {
		if spec.published(id) && spec.must(id) {
			v.Expected++
			if !seen[id] {
				v.Missing++
			}
		}
	}
	if firstLive >= 0 && lastBacklog > firstLive {
		for _, d := range got[firstLive:lastBacklog] {
			if d.id >= spec.backlogHi {
				v.BacklogLate++
			}
		}
	}
	return v
}
