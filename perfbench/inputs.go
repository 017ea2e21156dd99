package main

import (
	"fmt"

	"eventsys/internal/event"
	"eventsys/internal/filter"
	"eventsys/internal/typing"
	"eventsys/internal/workload"
)

// Every workload publishes the monitoring events of workload.Alerts. The
// pool is smaller than any run's stream, so the stream cycles through it;
// event content repeats but every publish carries a fresh ID, and brokers
// keep no per-content state.
const (
	poolSize  = 1 << 14
	maxProbes = 40000 // convergence probes (10s of them) reserve IDs 1..maxProbes

	alertFilters = 2000 // alarm subscriptions held by the alerts subscriber
)

// alertsConfig shrinks workload.DefaultAlerts' pools so that 2,000 alarms
// fire on about 1% of events (the default's 20k metrics and 100k hosts
// spread 2,000 alarms too thin to fire at all).
func alertsConfig() workload.AlertsConfig {
	return workload.AlertsConfig{Metrics: 400, Regions: 20, Zones: 5, Hosts: 4, Levels: 120, Skew: 1.4}
}

// alertAd is the Alert schema every publisher advertises. Notes are left
// out because only 1% of events carry one, and a standardized filter
// requires every advertised attribute to be present. Stage 1 keeps the
// whole schema, so stage-1 brokers filter exactly; stage 2 keeps metric
// and topic, so a stage-2 root stores weakened filters.
func alertAd() *typing.Advertisement {
	return &typing.Advertisement{
		Class:      "Alert",
		Attrs:      []string{"metric", "topic", "value"},
		StageAttrs: []int{3, 3, 2, 0},
	}
}

// inputs is everything a run publishes and subscribes, generated from the
// seed before any timing starts.
type inputs struct {
	pool    []*event.Event
	filters []*filter.Filter // the measured subscriber's filters
	churn   []*filter.Filter // alerts only: filters subscribed and removed during the run
	probe   func(id uint64) *event.Event
}

// streamID maps the i-th stream event (0-based) to its wire ID.
func streamID(i int) uint64 { return maxProbes + 1 + uint64(i) }

// eventFor returns the content published under id: a convergence probe
// for the reserved low IDs, a pool event otherwise.
func (in *inputs) eventFor(id uint64) *event.Event {
	if id <= maxProbes {
		return in.probe(id)
	}
	return in.pool[(id-maxProbes-1)%uint64(len(in.pool))]
}

func genInputs(name string, seed uint64) (*inputs, error) {
	gen, err := workload.NewAlerts(seed, alertsConfig())
	if err != nil {
		return nil, err
	}
	in := &inputs{pool: make([]*event.Event, poolSize)}
	for i := range in.pool {
		in.pool[i] = gen.Event()
	}
	switch name {
	case "alerts":
		// The probe filter matches half the events, so latency
		// percentiles have samples even though alarms fire on about 1%.
		in.filters = append(in.filters, &filter.Filter{Class: "Alert", Constraints: []filter.Constraint{
			filter.C("value", filter.OpGe, event.Float(25)),
			filter.C("value", filter.OpLt, event.Float(75)),
		}})
		seen := map[string]bool{in.filters[0].Key(): true}
		for len(in.filters) < alertFilters+1 {
			f := gen.Subscription()
			if !seen[f.Key()] {
				seen[f.Key()] = true
				in.filters = append(in.filters, f)
			}
		}
		// Churn filters have the alarm shapes but thresholds outside the
		// value range, so they exercise index writes without changing
		// which events are delivered.
		for len(in.churn) < 4096 {
			f := gen.Subscription()
			for i, c := range f.Constraints {
				if c.Attr == "value" {
					f.Constraints[i].Operand = event.Float(1000 + float64(len(in.churn)))
					f.Constraints[i].Op = filter.OpGe
				}
			}
			in.churn = append(in.churn, f)
		}
		in.probe = func(id uint64) *event.Event { return nil }
	case "chain":
		in.filters = []*filter.Filter{{Class: "Alert"}}
		in.probe = func(id uint64) *event.Event {
			return event.NewBuilder("Alert").Str("metric", "probe").Float("value", 50).Str("topic", "m/probe").ID(id).Build()
		}
	case "catchup":
		in.filters = catchupFilters()
		last := in.filters[len(in.filters)-1]
		in.probe = func(id uint64) *event.Event {
			// Matches only the last filter, whose parent-side insert
			// reaches the root after every other one.
			return event.NewBuilder("Alert").
				Str("metric", catchupMetric(last)).
				Float("value", 50).
				Str("topic", catchupTopic(last)+"z00/h000").
				ID(id).Build()
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want alerts, chain or catchup)", name)
	}
	return in, nil
}

// catchupFilters are the durable subscriber's filters: each names a
// metric range, a region and a value threshold. Constraining every
// advertised attribute keeps them off the wildcard placement path, so the
// Figure 5 walk places them at the stage-1 leaf; their regions are
// disjoint, and together they deliver about 40% of events.
func catchupFilters() []*filter.Filter {
	var out []*filter.Filter
	for r := 0; r < 14; r++ {
		metric := "metric-000" // a quarter of the metrics
		if r%2 == 1 {
			metric = "metric-00" // all of them
		}
		out = append(out, &filter.Filter{Class: "Alert", Constraints: []filter.Constraint{
			filter.C("metric", filter.OpPrefix, event.String(metric)),
			filter.C("topic", filter.OpPrefix, event.String(fmt.Sprintf("m/r%02d/", r))),
			filter.C("value", filter.OpGe, event.Float(10)),
		}})
	}
	return out
}

func catchupMetric(f *filter.Filter) string { return f.Constraints[0].Operand.Str() + "00" }
func catchupTopic(f *filter.Filter) string  { return f.Constraints[1].Operand.Str() }
