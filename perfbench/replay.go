package main

import (
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"path/filepath"
	"sort"
	"time"

	"eventsys/internal/event"
	"eventsys/internal/filter"
	"eventsys/internal/flow"
	"eventsys/internal/index"
	"eventsys/internal/peering"
	"eventsys/internal/routing"
	"eventsys/internal/store"
	"eventsys/internal/transport"
	"eventsys/internal/typing"
	"eventsys/internal/weaken"
)

// Replay bounds: the traced replay stops at whichever comes first.
const (
	replayEvents = 8000
	replayBudget = 3 * time.Second
)

// countingWriter counts the bytes written through it.
type countingWriter struct {
	w io.Writer
	n int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += n
	return n, err
}

// loopbackPair returns both ends of one loopback TCP connection.
func loopbackPair() (net.Conn, net.Conn, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	defer ln.Close()
	type res struct {
		c   net.Conn
		err error
	}
	acc := make(chan res, 1)
	go func() {
		c, err := ln.Accept()
		acc <- res{c, err}
	}()
	w, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, nil, err
	}
	a := <-acc
	if a.err != nil {
		w.Close()
		return nil, nil, a.err
	}
	return w, a.c, nil
}

// replay runs the workload's generated inputs through each layer's public
// functions in path order, one span per call and one trace per event, and
// derives the per-layer timings. It runs in this process, after the
// brokers are gone, so it measures the layers without contention.
func (r *runner) replay(traceDir string) error {
	t := &tracer{}
	ads := &typing.AdvertisementSet{}
	if err := ads.Put(alertAd()); err != nil {
		return err
	}
	weak := weaken.New(ads, nil)
	// The default engine: routing.NewNode builds its table with the zero
	// index.Config, exactly as a broker started without -engine does.
	node := routing.NewNode(routing.Config{ID: "replay", Stage: 1, Weakener: weak})
	local := peering.New(peering.Config{})
	rng := rand.New(rand.NewPCG(r.cfg.seed, 1))

	// Subscribe path, as the broker runs it for an accepted subscription.
	const subTraces = uint64(1) << 62
	var stored []*filter.Filter
	for i, f := range r.in.filters {
		root := t.begin("subscribe", subTraces+uint64(i), 0)
		var res routing.SubscribeResult
		t.around("routing.subscribe", subTraces+uint64(i), root, func() {
			res = node.HandleSubscribe(f, "sub", rng, time.Now())
		})
		t.around("peering.subscribe", subTraces+uint64(i), root, func() { local.Subscribe("sub", f) })
		t.around("weaken.filter", subTraces+uint64(i), root, func() { weak.Filter(f, 2) })
		t.end(root)
		stored = append(stored, res.Stored)
	}
	// Index writes on a table of the same size: every stored filter goes
	// in, the churn filters go in and out, then everything comes out.
	eng := index.New(index.Config{})
	ins := func(trace uint64, f *filter.Filter) {
		t.around("index.insert", trace, 0, func() { eng.Insert(f, "sub") })
	}
	rem := func(trace uint64, f *filter.Filter) {
		t.around("index.remove", trace, 0, func() { eng.Remove(f, "sub") })
	}
	for i, f := range stored {
		ins(subTraces+uint64(i), f)
	}
	var churned []*filter.Filter
	for i, f := range r.in.churn {
		if i == churnPerSec*r.cfg.seconds*3/10 { // as many as the churn phase runs
			break
		}
		sf := weak.Filter(f, 1)
		ins(subTraces+uint64(len(stored)+i), sf)
		churned = append(churned, sf)
		if len(churned) > churnLive {
			rem(subTraces+uint64(len(stored)+i), churned[0])
			churned = churned[1:]
		}
	}
	for i, f := range append(churned, stored...) {
		rem(subTraces+uint64(i), f)
	}

	// Event path: encode, frame over loopback, decode, queue, match,
	// federation routing, batch routing and the durable store.
	w, rd, err := loopbackPair()
	if err != nil {
		return err
	}
	defer w.Close()
	defer rd.Close()
	cw := &countingWriter{w: w}
	fr := transport.NewFrameReader(rd)
	q := flow.New(flow.Config[transport.Message]{Window: flow.DefaultCreditWindow})
	fed := peering.New(peering.Config{})
	fed.AddLink("upstream")
	fed.AddLink("downstream")
	for _, f := range r.in.filters {
		fed.Apply("downstream", peering.Entry{Filter: f, Hops: 1})
	}
	st, err := store.Open(filepath.Join(r.cfg.dir, "replay-store"), store.Options{})
	if err != nil {
		return err
	}
	defer st.Close()
	if _, _, err := st.Register("sub"); err != nil {
		return err
	}
	batchSize := 1
	if c := r.counts; c.batches > 0 {
		batchSize = min(max(int(math.Round(c.batchEvents/c.batches)), 1), 1024)
	}
	var (
		events, hits, evBytes, frameBytes, storeBytes, appended, batched int
		batch                                                            []*event.Raw
		views                                                            []event.View
	)
	deadline := time.Now().Add(replayBudget)
	for i := 0; i < replayEvents && time.Now().Before(deadline); i++ {
		id := streamID(i)
		e := r.in.eventFor(id)
		e.ID = id
		root := t.begin("path", id, 0)
		var raw *event.Raw
		t.around("event.encode", id, root, func() { raw = event.EncodeRaw(e) })
		evBytes += len(raw.Bytes())
		before := cw.n
		t.around("transport.write", id, root, func() { err = transport.WriteFrame(cw, transport.Publish{Event: raw}) })
		if err != nil {
			return err
		}
		frameBytes += cw.n - before
		var m transport.Message
		t.around("transport.read", id, root, func() { m, err = fr.ReadFrame() })
		if err != nil {
			return err
		}
		pub, ok := m.(transport.Publish)
		if !ok {
			return fmt.Errorf("replay read %T, want Publish", m)
		}
		rx := pub.Event
		t.around("event.decode", id, root, func() { rx.Event() })
		t.around("flow.queue", id, root, func() {
			q.Push(m)
			q.Pop()
		})
		t.around("index.match", id, root, func() {
			_, n := node.Table().Match(rx)
			hits += n
		})
		t.around("filter.match", id, root, func() {
			for _, f := range stored {
				f.Matches(rx, nil)
			}
		})
		t.around("peering.match_links", id, root, func() { fed.MatchLinks(rx, "upstream") })
		batch = append(batch, rx)
		views = append(views, rx)
		if len(batch) == batchSize {
			t.around("routing.batch", id, root, func() { node.HandleEventBatch(views) })
			var n, b int
			t.around("store.append", id, root, func() { n, b, err = st.AppendBatch("sub", batch) })
			if err != nil {
				return err
			}
			appended += n
			storeBytes += b
			batched += len(batch)
			if (batched/batchSize)%8 == 0 {
				t.around("store.sync", id, root, func() { err = st.Sync() })
				if err != nil {
					return err
				}
			}
			batch, views = batch[:0], views[:0]
		}
		t.end(root)
		events++
	}
	replayed := 0
	t.around("store.replay", 0, 0, func() {
		_, err = st.Replay("sub", func(*event.Raw) bool { replayed++; return true })
	})
	if err != nil {
		return err
	}

	perCall := func(name string) float64 { return mean(t.durations(name)) }
	total := func(name string) float64 {
		var s float64
		for _, d := range t.durations(name) {
			s += d
		}
		return s
	}
	match := sortedCopy(t.durations("index.match"))
	set := func(name, unit string, v float64, n int) { r.layer[name] = metric{v, unit, n} }
	set("index.match_ns", "ns", mean(match), len(match))
	set("index.match_p99_ns", "ns", quantile(match, 0.99), len(match))
	set("index.hits_per_ev", "count", float64(hits)/float64(events), events)
	set("filter.match_ns", "ns", total("filter.match")/float64(events*max(len(stored), 1)), events*len(stored))
	set("index.insert_ns", "ns", perCall("index.insert"), len(t.durations("index.insert")))
	set("index.remove_ns", "ns", perCall("index.remove"), len(t.durations("index.remove")))
	set("routing.subscribe_ns", "ns", perCall("routing.subscribe"), len(stored))
	set("peering.subscribe_ns", "ns", perCall("peering.subscribe"), len(stored))
	set("weaken.filter_ns", "ns", perCall("weaken.filter"), len(stored))
	set("event.encode_ns", "ns", perCall("event.encode"), events)
	set("event.decode_ns", "ns", perCall("event.decode"), events)
	set("event.bytes", "B", float64(evBytes)/float64(events), events)
	set("transport.write_ns", "ns", perCall("transport.write"), events)
	set("transport.read_ns", "ns", perCall("transport.read"), events)
	set("transport.frame_bytes", "B", float64(frameBytes)/float64(events), events)
	set("peering.match_links_ns", "ns", perCall("peering.match_links"), events)
	set("flow.queue_ns", "ns", perCall("flow.queue"), events)
	set("routing.batch_ns", "ns", total("routing.batch")/float64(max(batched, 1)), batched)
	set("store.append_ns", "ns", total("store.append")/float64(max(appended, 1)), appended)
	set("store.bytes_per_ev", "B", float64(storeBytes)/float64(max(appended, 1)), appended)
	set("store.sync_ms", "ms", perCall("store.sync")/1e6, len(t.durations("store.sync")))
	set("store.replay_ns", "ns", total("store.replay")/float64(max(replayed, 1)), replayed)

	// Self time per layer along the event path, per event.
	self := selfTimes(t.spans)
	pathLayers := map[string]float64{}
	for name, ns := range self {
		switch name {
		case "subscribe", "index.insert", "index.remove", "routing.subscribe", "peering.subscribe", "weaken.filter", "store.replay":
			continue
		}
		pathLayers[layerOf(name)] += float64(ns) / float64(events) / 1e3
	}
	// "path" is the replay's own glue between the calls, not a layer.
	var names []string
	var sum float64
	for l, us := range pathLayers {
		names = append(names, l)
		if l != "path" {
			sum += us
		}
	}
	sort.Strings(names)
	r.extra = append(r.extra, fmt.Sprintf("trace: replayed %d events (batch %d) and %d subscriptions; spans in %s",
		events, batchSize, len(stored), filepath.Join(traceDir, r.traceName())))
	for _, l := range names {
		r.extra = append(r.extra, fmt.Sprintf("self time  %-10s %9.3f us/ev", l, pathLayers[l]))
	}
	cpu := math.NaN()
	if c := r.counts; len(c.cpuUS) > 0 {
		var s float64
		for _, x := range c.cpuUS {
			s += x
		}
		cpu = s / float64(r.published())
	}
	r.extra = append(r.extra, fmt.Sprintf("self time  %-10s %9.3f us/ev   (layers, without path) next to summed broker CPU %.3f us/ev over the live run", "sum", sum, cpu))
	r.extra = append(r.extra, "  (the replay calls every layer once per event, where a broker hop runs only some of them,",
		"   and it cannot see scheduling, GC, or the syscalls and queueing of the other hops)")
	set("trace.layers_us_per_ev", "us", sum, events)
	return t.write(filepath.Join(traceDir, r.traceName()))
}

func (r *runner) traceName() string {
	return fmt.Sprintf("spans-%s-%d.jsonl", r.cfg.workload, r.cfg.seed)
}

func (r *runner) published() int {
	n := 0
	for _, p := range r.phases {
		n += p.count()
	}
	return n
}
