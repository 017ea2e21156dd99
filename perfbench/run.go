package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"eventsys/internal/broker"
	"eventsys/internal/event"
	"eventsys/internal/filter"
	"eventsys/internal/transport"
)

type config struct {
	workload  string
	seed      uint64
	seconds   int
	trace     bool
	brokerBin string
	dir       string // this run's private directory (logs, stores)
	rate      float64
}

// metric is one reported number; n is its sample count where it has one.
type metric struct {
	value float64
	unit  string
	n     int
}

// Run parameters. maxLate is a validity bound: beyond it a run is
// reported invalid, not measured.
const (
	maxLate     = 50 * time.Millisecond // open-loop publish behind schedule
	churnPerSec = 250                   // alerts subscribe/unsubscribe pairs
	churnLive   = 64                    // churn filters held at once
	minSetups   = 7                     // deployments per run; setup_s is their median
	maxSetups   = 41                    // deployments per run when each is quick
)

// runner drives one workload against real broker processes.
type runner struct {
	cfg config
	in  *inputs

	brokers   []*brokerProc
	deployDir string // the current deployment's logs and stores
	pub       *broker.Publisher
	rs        *rawSub // alerts and catchup subscriber
	sk        *sink   // chain subscriber
	hist      []delivery
	histRaw   []*event.Raw

	must      []bool     // per pool index: the original filters match
	stored    *filterSet // the subscriber's filters as the broker stored them
	origSet   *filterSet
	next      int // next stream index
	nextProbe uint64
	firstLive uint64 // lowest probe ID that must be delivered
	pubErrs   int
	errIDs    map[uint64]bool

	setupS     []float64
	phases     []*phase
	lat        []float64 // open-loop publish→handler latencies, µs
	subRTT     []float64 // alerts churn Subscribe→SubscribeReply, µs
	openCPU    float64   // broker CPU µs over the first open-loop phase
	openEvents int
	counts     countDelta
	e2e        map[string]metric
	layer      map[string]metric
	extra      []string // report lines beyond the metrics
	invalid    []string
	conserved  int // conservation identities checked
	broken     int // conservation identities violated
}

func newRunner(cfg config, in *inputs) *runner {
	r := &runner{cfg: cfg, in: in, e2e: map[string]metric{}, layer: map[string]metric{}, errIDs: map[uint64]bool{}}
	r.origSet = newFilterSet(in.filters)
	r.must = make([]bool, len(in.pool))
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < len(in.pool); k += workers {
				r.must[k] = r.origSet.matches(in.pool[k])
			}
		}(w)
	}
	wg.Wait()
	return r
}

// phase is one publishing interval of the stream.
type phase struct {
	name        string
	timed       bool   // latency is measured on this phase
	first, last uint64 // stream IDs [first, last)
	due         []int64
	late        []float64 // ns behind schedule, open loop only
	pubNs       []float64
	start, end  int64
	err         error  // the publish that ended the phase early
	marks       []mark // unthrottled only: one per rateWindow
}

// mark is how many events an unthrottled phase had published at a time.
type mark struct {
	n  int
	at int64
}

func (p *phase) count() int { return int(p.last - p.first) }

func (r *runner) mustID(id uint64) bool {
	if id <= maxProbes {
		return id >= r.firstLive && id < r.nextProbe && r.origSet.matches(r.in.probe(id))
	}
	return r.must[(id-maxProbes-1)%uint64(len(r.must))]
}

func (r *runner) publishedID(id uint64) bool {
	if r.errIDs[id] {
		return false
	}
	if id <= maxProbes {
		return id >= 1 && id < r.nextProbe
	}
	return id < streamID(r.next)
}

// publish sends the event for id. Pool events are shared, so the ID is
// set just before the publisher encodes it.
func (r *runner) publish(id uint64) error {
	e := r.in.eventFor(id)
	e.ID = id
	if err := r.pub.Publish(e); err != nil {
		r.pubErrs++
		r.errIDs[id] = true
		return err
	}
	return nil
}

// paceSpin is how much of a wait pace spins instead of sleeping: the
// nanosleep overshoot on a thread whose timer slack is 1µs.
const paceSpin = 10_000

// pace waits until the due time: a nanosleep for all but the last
// paceSpin ns, then a short spin. On a thread with the default 50µs timer
// slack the sleep overshoots by that much instead.
func pace(due int64) {
	if d := due - now(); d > paceSpin {
		ts := syscall.NsecToTimespec(d - paceSpin)
		_ = syscall.Nanosleep(&ts, nil)
	}
	for now() < due {
	}
}

// preciseTimers pins the calling goroutine to its thread and cuts the
// thread's timer slack to 1µs, so pace can sleep through short gaps
// instead of spinning a core the brokers need. Call the returned func
// when done.
func preciseTimers() func() {
	runtime.LockOSThread()
	const prSetTimerslack = 29
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1000, 0)
	return runtime.UnlockOSThread
}

// openLoop publishes at a fixed rate for dur, each event on its own due
// time regardless of how earlier ones fared.
func (r *runner) openLoop(name string, rate float64, dur time.Duration) *phase {
	defer preciseTimers()()
	n := int(rate * dur.Seconds())
	p := &phase{name: name, first: streamID(r.next)}
	period := 1e9 / rate
	p.start = now() + int64(time.Millisecond)
	for i := 0; i < n; i++ {
		due := p.start + int64(float64(i)*period)
		pace(due)
		t := now()
		id := streamID(r.next)
		r.next++
		err := r.publish(id)
		p.due = append(p.due, due)
		p.late = append(p.late, float64(t-due))
		p.pubNs = append(p.pubNs, float64(now()-t))
		if err != nil {
			p.err = err
			break
		}
	}
	p.end = now()
	p.last = streamID(r.next)
	r.phases = append(r.phases, p)
	return p
}

// burst publishes as fast as credit flow control admits for dur.
func (r *runner) burst(name string, dur time.Duration) *phase {
	p := &phase{name: name, first: streamID(r.next), start: now()}
	stop := p.start + int64(dur)
	for i := 0; ; i++ {
		if i%16 == 0 {
			t := now()
			if t >= stop {
				break
			}
			if t >= p.start+int64(len(p.marks)+1)*int64(rateWindow) {
				p.marks = append(p.marks, mark{i, t})
			}
		}
		id := streamID(r.next)
		r.next++
		if err := r.publish(id); err != nil {
			p.err = err
			break
		}
	}
	p.end = now()
	p.last = streamID(r.next)
	r.phases = append(r.phases, p)
	return p
}

// box returns the measured subscriber's current inbox.
func (r *runner) box() *inbox {
	switch {
	case r.rs != nil:
		return &r.rs.inbox
	case r.sk != nil:
		return &r.sk.inbox
	}
	return nil
}

// deliveries returns everything the measured subscriber has received, in
// arrival order, across reconnects.
func (r *runner) deliveries() []delivery {
	out := append([]delivery(nil), r.hist...)
	if b := r.box(); b != nil {
		out = append(out, b.since(0)...)
	}
	return out
}

// lastMust returns the highest ID in [first, last) the subscriber must
// receive, 0 if none.
func (r *runner) lastMust(first, last uint64) uint64 {
	for id := last; id > first; id-- {
		if r.mustID(id-1) && r.publishedID(id-1) {
			return id - 1
		}
	}
	return 0
}

// waitFor blocks until a delivery with an ID at or above target arrives
// (per-source FIFO makes it the last one expected up to target) and
// returns its arrival time.
func (r *runner) waitFor(target uint64, timeout time.Duration) (int64, error) {
	if target == 0 {
		return now(), nil
	}
	b := r.box()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	seen := 0
	for {
		tail := b.since(seen)
		for _, d := range tail {
			if d.id >= target {
				return d.at, nil
			}
		}
		seen += len(tail)
		select {
		case <-b.notify:
		case <-tick.C:
			r.checkAlive()
		case <-timer.C:
			return 0, fmt.Errorf("event %d not delivered within %v", target, timeout)
		}
	}
}

// checkAlive records an invalid run if any broker process has died.
func (r *runner) checkAlive() {
	for _, b := range r.brokers {
		if !b.alive() && !b.stopped {
			msg := fmt.Sprintf("broker %s died; log tail:\n%s", b.id, tail(b.log))
			for _, m := range r.invalid {
				if m == msg {
					return
				}
			}
			r.invalid = append(r.invalid, msg)
		}
	}
}

func (r *runner) start(id string, args ...string) (*brokerProc, error) {
	b, err := startBroker(r.cfg.brokerBin, r.deployDir, id, args...)
	if err != nil {
		return nil, err
	}
	r.brokers = append(r.brokers, b)
	return b, nil
}

// teardown closes the clients and stops every broker.
func (r *runner) teardown() {
	if r.pub != nil {
		r.pub.Close()
		r.pub = nil
	}
	if r.rs != nil {
		r.rs.drop()
		r.rs = nil
	}
	if r.sk != nil {
		r.sk.sub.Close()
		r.sk = nil
	}
	for _, b := range r.brokers {
		b.stop()
	}
	r.brokers = nil
	r.hist, r.histRaw = nil, nil
}

// converge publishes a probe every 250µs until one reaches the
// subscriber, proving the route from the publisher's broker exists. Probes
// published before that had no route and are exempt from the oracle.
func (r *runner) converge() error {
	r.nextProbe, r.firstLive = 1, 0
	b := r.box()
	for b.received() == 0 {
		if r.nextProbe > maxProbes {
			return errors.New("federation did not converge: no probe delivered")
		}
		id := r.nextProbe
		r.nextProbe++
		if err := r.publish(id); err != nil {
			return err
		}
		pace(now() + 250_000)
	}
	d := r.deliveries()
	r.firstLive = d[0].id
	_, err := r.waitFor(r.nextProbe-1, 10*time.Second)
	return err
}

// setup runs the workload's deployment minSetups times, and more (up to
// maxSetups) until a second has passed, timing each from
// broker launch until every subscription is acknowledged and the route is
// proven; the last deployment stays up for the measurement. Each
// deployment gets a fresh directory for its logs and stores.
func (r *runner) setup(deploy func(dataDir string) error) error {
	start := now()
	for i := 0; i < minSetups || (now()-start < int64(time.Second) && i < maxSetups); i++ {
		if i > 0 {
			r.teardown()
		}
		r.deployDir = filepath.Join(r.cfg.dir, fmt.Sprintf("deploy-%d", i))
		if err := os.MkdirAll(r.deployDir, 0o755); err != nil {
			return err
		}
		t0 := now()
		if err := deploy(filepath.Join(r.deployDir, "store")); err != nil {
			return err
		}
		r.setupS = append(r.setupS, float64(now()-t0)/1e9)
	}
	return nil
}

// subscribeUntil subscribes f until the stored form satisfies ok (the
// broker has the advertisement, or the placement walk reached the leaf),
// withdrawing each refused attempt.
func subscribeUntil(s *rawSub, f *filter.Filter, ok func(*filter.Filter) bool) (*filter.Filter, error) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		stored, _, err := s.subscribeRTT(f)
		if err != nil {
			return nil, err
		}
		if ok(stored) {
			return stored, nil
		}
		if err := s.unsubscribe(stored); err != nil {
			return nil, err
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("subscription never reached its expected form (stored %v)", stored)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (r *runner) dur(share float64) time.Duration {
	return time.Duration(share * float64(r.cfg.seconds) * float64(time.Second))
}

// run executes the workload and fills the metrics.
func (r *runner) run() error {
	var err error
	switch r.cfg.workload {
	case "alerts":
		err = r.alerts()
	case "chain":
		err = r.chain()
	case "catchup":
		err = r.catchup()
	}
	r.checkAlive()
	return err
}

func (r *runner) alerts() error {
	var storedFs []*filter.Filter
	err := r.setup(func(string) error {
		b, err := r.start("alerts")
		if err != nil {
			return err
		}
		if r.pub, err = broker.DialPublisher(b.addr, "pub"); err != nil {
			return err
		}
		if err := r.pub.Advertise(alertAd()); err != nil {
			return err
		}
		if r.rs, err = dialRaw(b.addr, "alerts"); err != nil {
			return err
		}
		if err := r.rs.start(transport.NewFrameReader(r.rs.conn)); err != nil {
			return err
		}
		// A stored form without constraints means the broker had not
		// yet applied the advertisement (the two clients' connections
		// are not ordered with each other).
		first, err := subscribeUntil(r.rs, r.in.filters[0], func(f *filter.Filter) bool { return len(f.Constraints) > 0 })
		if err != nil {
			return err
		}
		rest, err := r.rs.subscribeAll(r.in.filters[1:])
		storedFs = append([]*filter.Filter{first}, rest...)
		return err
	})
	if err != nil {
		return err
	}
	r.stored = newFilterSet(storedFs)
	before, err := r.measure()
	if err != nil {
		return err
	}
	cpu0 := r.brokerCPU()
	open := r.openLoop("open", r.cfg.rate, r.dur(0.4))
	if _, err := r.waitFor(r.lastMust(open.first, open.last), 30*time.Second); err != nil {
		return err
	}
	r.latencies(open, cpu0)

	// The same open loop with subscribe/unsubscribe churn on the
	// subscriber's connection: index writes beside index reads. Its
	// latencies are reported, not gated: when a churn operation holds
	// the broker's core, the events behind it wait, and how many do
	// moves the tail by more than any bound between runs.
	stop := make(chan struct{})
	churnDone := make(chan error, 1)
	go func() { churnDone <- r.churn(stop) }()
	churned := r.openLoop("churn", r.cfg.rate, r.dur(0.3))
	close(stop)
	if err := <-churnDone; err != nil {
		return fmt.Errorf("churn: %w", err)
	}
	if _, err := r.waitFor(r.lastMust(churned.first, churned.last), 30*time.Second); err != nil {
		return err
	}
	if lat := r.phaseLatencies(churned); len(lat) > 0 {
		s := sortedCopy(lat)
		r.extra = append(r.extra, fmt.Sprintf("latency under churn: p50 %.1f us, p90 %.1f us, p99 %.1f us (n=%d)",
			quantile(s, 0.5), quantile(s, 0.9), quantile(s, 0.99), len(s)))
	}

	sat := r.burst("sat", r.dur(0.3))
	if err := r.saturation(sat); err != nil {
		return err
	}
	return r.finish(before, r.brokers[0])
}

// churn subscribes and unsubscribes never-matching alarm filters at a
// fixed rate on the subscriber's connection, timing each round trip.
func (r *runner) churn(stop <-chan struct{}) error {
	var live []*filter.Filter
	period := int64(time.Second) / churnPerSec
	next := now()
	for i := 0; ; i++ {
		select {
		case <-stop:
			for _, f := range live {
				if err := r.rs.unsubscribe(f); err != nil {
					return err
				}
			}
			return nil
		default:
		}
		next += period
		pace(next)
		stored, rtt, err := r.rs.subscribeRTT(r.in.churn[i%len(r.in.churn)])
		if err != nil {
			return err
		}
		r.subRTT = append(r.subRTT, float64(rtt)/1e3)
		live = append(live, stored)
		if len(live) > churnLive {
			if err := r.rs.unsubscribe(live[0]); err != nil {
				return err
			}
			live = live[1:]
		}
	}
}

func (r *runner) chain() error {
	err := r.setup(func(string) error {
		a, err := r.start("A")
		if err != nil {
			return err
		}
		b, err := r.start("B", "-peer", a.addr)
		if err != nil {
			return err
		}
		c, err := r.start("C", "-peer", b.addr)
		if err != nil {
			return err
		}
		if r.pub, err = broker.DialPublisher(a.addr, "pub"); err != nil {
			return err
		}
		if err := r.pub.Advertise(alertAd()); err != nil {
			return err
		}
		if r.sk, err = dialSink(c.addr, "sink", r.in.filters[0]); err != nil {
			return err
		}
		return r.converge()
	})
	if err != nil {
		return err
	}
	r.stored = r.origSet
	before, err := r.measure()
	if err != nil {
		return err
	}
	cpu0 := r.brokerCPU()
	open := r.openLoop("open", r.cfg.rate, r.dur(0.5))
	if _, err := r.waitFor(r.lastMust(open.first, open.last), 30*time.Second); err != nil {
		return err
	}
	r.latencies(open, cpu0)
	sat := r.burst("sat", r.dur(0.5))
	if err := r.saturation(sat); err != nil {
		return err
	}
	return r.finish(before, r.brokers[0])
}

func (r *runner) catchup() error {
	var root, leaf *brokerProc
	var storedFs []*filter.Filter
	err := r.setup(func(dataDir string) error {
		var err error
		if root, err = r.start("root", "-stage", "2"); err != nil {
			return err
		}
		if leaf, err = r.start("leaf", "-parent", root.addr, "-data-dir", dataDir); err != nil {
			return err
		}
		if r.pub, err = broker.DialPublisher(root.addr, "pub"); err != nil {
			return err
		}
		if err := r.pub.Advertise(alertAd()); err != nil {
			return err
		}
		first, err := r.place(leaf.addr, root.addr)
		if err != nil {
			return err
		}
		rest, err := r.rs.subscribeAll(r.in.filters[1:])
		if err != nil {
			return err
		}
		storedFs = append([]*filter.Filter{first}, rest...)
		return r.converge()
	})
	if err != nil {
		return err
	}
	r.stored = newFilterSet(storedFs)
	before, err := r.measure()
	if err != nil {
		return err
	}

	// Live: latency with the subscriber attached.
	cpu0 := r.brokerCPU()
	live := r.openLoop("live", r.cfg.rate, r.dur(0.3))
	if _, err := r.waitFor(r.lastMust(live.first, live.last), 30*time.Second); err != nil {
		return err
	}
	r.latencies(live, cpu0)

	// Away: drop the socket without unsubscribing and wait until the
	// leaf has noticed, so nothing is in flight to a dead connection.
	r.rs.drop()
	r.hist, r.histRaw = append(r.hist, r.rs.got...), append(r.histRaw, r.rs.raws...)
	r.rs = nil
	var appended0 float64
	if err := pollScrape(leaf, 10*time.Second, func(s scrape) bool {
		appended0 = s.sum("eventsys_node_store_appended_events_total")
		return !s.has("eventsys_queue_depth", `queue="out/durable"`)
	}); err != nil {
		return fmt.Errorf("leaf never dropped the subscriber connection: %w", err)
	}
	away := r.burst("away", r.dur(0.05))
	stored := 0
	for id := away.first; id < away.last; id++ {
		if r.mustID(id) && r.publishedID(id) {
			stored++
		}
	}
	var absorbedAt int64
	var appended float64
	if err := pollScrape(leaf, 60*time.Second, func(s scrape) bool {
		appended = s.sum("eventsys_node_store_appended_events_total") - appended0
		absorbedAt = now()
		return appended >= float64(stored)
	}); err != nil {
		return fmt.Errorf("leaf stored %.0f of %d events: %w", appended, stored, err)
	}
	r.conserve(appended == float64(stored), "leaf StoreAppended %.0f = events stored while away %d", appended, stored)
	r.e2e["store_eps"] = metric{float64(away.count()) / secs(absorbedAt-away.start), "1/s", away.count()}

	awayLast := r.lastMust(away.first, away.last)
	// Return: live traffic resumes at the fixed rate while the
	// subscriber walks back to the leaf and its backlog replays.
	var back *phase
	pubDone := make(chan struct{})
	go func() {
		back = r.openLoop("return", r.cfg.rate, r.dur(0.25))
		close(pubDone)
	}()
	reconnectAt := now()
	_, err = r.place(leaf.addr, root.addr)
	if err == nil {
		_, err = r.rs.subscribeAll(r.in.filters[1:])
	}
	if err != nil {
		<-pubDone
		return err
	}
	caughtUp, err := r.waitFor(awayLast, 60*time.Second)
	<-pubDone
	if err != nil {
		return err
	}
	r.e2e["replay_eps"] = metric{float64(stored) / secs(caughtUp-reconnectAt), "1/s", stored}
	if _, err := r.waitFor(r.lastMust(back.first, back.last), 30*time.Second); err != nil {
		return err
	}

	sat := r.burst("sat", r.dur(0.4))
	if err := r.saturation(sat); err != nil {
		return err
	}
	return r.finish(before, root)
}

// place walks the durable subscriber from the root to the leaf with its
// first filter, retrying until the leaf has joined the root and learned
// the advertisement, and starts its read loop.
func (r *runner) place(leafAddr, rootAddr string) (*filter.Filter, error) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		s, fr, stored, err := walk(rootAddr, "durable", r.in.filters[0])
		if err != nil {
			return nil, err
		}
		if s.addr == leafAddr && len(stored.Constraints) > 0 {
			r.rs = s
			return stored, s.start(fr)
		}
		_ = s.unsubscribe(stored)
		s.conn.Close()
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("durable subscriber never placed at the leaf (accepted by %s, stored %v)", s.addr, stored)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func pollScrape(b *brokerProc, timeout time.Duration, done func(scrape) bool) error {
	deadline := time.Now().Add(timeout)
	for {
		s, err := scrapeMetrics(b.obsAddr)
		if err != nil {
			return err
		}
		if done(s) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out after %v", timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func secs(ns int64) float64 { return float64(ns) / 1e9 }

// minLatencySamples is the fewest latency samples a run accepts: one
// window for a p99 with ten samples beyond it.
const minLatencySamples = 1000

// latencies records the open-loop phase's publish→handler latency for
// every event the original filters demand, timed from its due time, and
// the brokers' CPU time per event over the phase (cpu0 was read just
// before it).
func (r *runner) latencies(p *phase, cpu0 float64) {
	p.timed = true
	r.openCPU, r.openEvents = r.brokerCPU()-cpu0, p.count()
	r.lat = append(r.lat, r.phaseLatencies(p)...)
}

// phaseLatencies returns, in due order, the latency in µs of every event
// of an open-loop phase that the original filters demand.
func (r *runner) phaseLatencies(p *phase) []float64 {
	var lat []float64
	for _, d := range r.deliveries() {
		if d.id >= p.first && d.id < p.last && r.mustID(d.id) {
			lat = append(lat, float64(d.at-p.due[d.id-p.first])/1e3)
		}
	}
	return lat
}

// brokerCPU sums the brokers' CPU time in µs.
func (r *runner) brokerCPU() float64 {
	var t float64
	for _, b := range r.brokers {
		if p, err := readProc(b.cmd.Process.Pid); err == nil {
			t += float64(p.cpuTicks) * 1e6 / clockTicks
		}
	}
	return t
}

// windowed splits samples (in due order) into windows just large enough
// for a q-quantile with ten samples beyond it, folding a short remainder
// into the last window, and returns the median over windows of each
// window's q-quantile: a burst of interference (a collector pause, a
// descheduled broker) moves only the windows it falls in, not the median.
func windowed(samples []float64, q float64) float64 {
	size := int(math.Ceil(10 / (1 - q)))
	var per []float64
	for i := 0; i+size <= len(samples); i += size {
		end := i + size
		if len(samples)-end < size {
			end = len(samples)
		}
		per = append(per, quantile(sortedCopy(samples[i:end]), q))
	}
	return median(per)
}

// rateWindow is the interval over which an unthrottled phase's publish
// rate is counted.
const rateWindow = 500 * time.Millisecond

// saturation waits for the last expected delivery of an unthrottled phase
// and records sat_eps: the median over rateWindows of the publish rate.
// Credit flow control holds the publisher to the rate the brokers absorb,
// and the median keeps a stalled window (a collector pause, a
// descheduled broker) from moving the figure. The report also prints the
// rate from the first publish to the last expected delivery.
func (r *runner) saturation(p *phase) error {
	last, err := r.waitFor(r.lastMust(p.first, p.last), 60*time.Second)
	if err != nil {
		return err
	}
	// Credit arrives in half-window grants, so the publisher advances in
	// steps; each rate divides by the measured time between marks, not
	// by the nominal window.
	var rates []float64
	prev := mark{0, p.start}
	for _, m := range p.marks {
		rates = append(rates, float64(m.n-prev.n)/secs(m.at-prev.at))
		prev = m
	}
	r.extra = append(r.extra, fmt.Sprintf("%s phase: %.0f events/s from first publish to last expected delivery",
		p.name, float64(p.count())/secs(last-p.start)))
	if len(rates) < 3 {
		return fmt.Errorf("%s phase too short for a rate: %d windows of %v", p.name, len(rates), rateWindow)
	}
	r.e2e["sat_eps"] = metric{median(rates), "1/s", p.count()}
	return nil
}

func (r *runner) conserve(ok bool, format string, args ...any) {
	r.conserved++
	state := "holds"
	if !ok {
		r.broken++
		state = "VIOLATED"
	}
	r.extra = append(r.extra, fmt.Sprintf("conservation %s: %s", state, fmt.Sprintf(format, args...)))
}

// sample reads every broker's /proc counters and /metrics.
type sampleSet struct {
	procs   []procSample
	scrapes []scrape
	waits   uint64
	rss     *rssSampler // summed resident memory, sampled until finish
}

func (r *runner) sample() (sampleSet, error) {
	var s sampleSet
	for _, b := range r.brokers {
		p, err := readProc(b.cmd.Process.Pid)
		if err != nil {
			return s, err
		}
		m, err := scrapeMetrics(b.obsAddr)
		if err != nil {
			return s, err
		}
		s.procs = append(s.procs, p)
		s.scrapes = append(s.scrapes, m)
	}
	if r.pub != nil {
		s.waits = r.pub.CreditWaits()
	}
	return s, nil
}

// measure samples the brokers at the start of the measured phases and
// starts sampling their resident memory.
func (r *runner) measure() (sampleSet, error) {
	s, err := r.sample()
	if err == nil {
		s.rss = startRSS(r.brokers)
	}
	return s, err
}

func (r *runner) indexOf(b *brokerProc) int {
	for i, x := range r.brokers {
		if x == b {
			return i
		}
	}
	return -1
}

// countDelta is what the brokers did between two samples.
type countDelta struct {
	cpuUS, syscr, syscw  []float64 // per broker
	hwmMB                []float64
	received             float64 // ingress broker
	dropped              float64 // all brokers, since start
	peerForwarded        float64
	batches, batchEvents float64
	stalls               float64
	queueHWM             float64
	creditWaits          float64
	storeAppended        float64
	storeReplayed        float64
}

// finish samples the brokers again, checks conservation and computes
// the resource metrics over the measured phases.
func (r *runner) finish(before sampleSet, ingress *brokerProc) error {
	// Events published after the last expected delivery may still be in
	// the ingress broker's inlet; let it count them before sampling.
	want := before.scrapes[r.indexOf(ingress)].sum("eventsys_node_received_events_total") + float64(r.published())
	_ = pollScrape(ingress, 10*time.Second, func(s scrape) bool {
		return s.sum("eventsys_node_received_events_total") >= want
	})
	rss := before.rss.stop()
	after, err := r.sample()
	if err != nil {
		return err
	}
	r.checkAlive()
	var c countDelta
	for i, b := range r.brokers {
		p0, p1 := before.procs[i], after.procs[i]
		s0, s1 := before.scrapes[i], after.scrapes[i]
		c.cpuUS = append(c.cpuUS, float64(p1.cpuTicks-p0.cpuTicks)*1e6/clockTicks)
		c.syscr = append(c.syscr, float64(p1.syscr-p0.syscr))
		c.syscw = append(c.syscw, float64(p1.syscw-p0.syscw))
		c.hwmMB = append(c.hwmMB, float64(p1.hwmKB)/1024)
		d := func(fam string) float64 { return s1.sum(fam) - s0.sum(fam) }
		if b == ingress {
			c.received = d("eventsys_node_received_events_total")
		}
		c.dropped += s1.sum("eventsys_node_dropped_events_total")
		c.peerForwarded += d("eventsys_node_peer_forwarded_events_total")
		c.batches += d("eventsys_node_match_batches_total")
		c.batchEvents += d("eventsys_node_match_batch_events_total")
		c.stalls += d("eventsys_node_flow_stalls_total")
		c.queueHWM = math.Max(c.queueHWM, s1.max("eventsys_queue_depth_max"))
		c.storeAppended += s1.sum("eventsys_node_store_appended_events_total")
		c.storeReplayed += s1.sum("eventsys_node_store_replayed_events_total")
	}
	c.creditWaits = float64(after.waits - before.waits)
	r.counts = c

	published := 0
	for _, p := range r.phases {
		published += p.count()
		if p.err != nil {
			r.invalid = append(r.invalid, fmt.Sprintf("%s: publish failed: %v", p.name, p.err))
		}
	}
	r.conserve(c.received == float64(published), "ingress Received %.0f = events sent %d", c.received, published)
	r.conserve(c.dropped == 0, "Dropped %.0f = 0 under the default Block policy", c.dropped)
	switch r.cfg.workload {
	case "chain":
		r.conserve(c.peerForwarded == 2*float64(published), "PeerForwarded %.0f = 2 x events %d", c.peerForwarded, published)
	case "catchup":
		r.conserve(c.storeAppended == c.storeReplayed, "StoreAppended %.0f = StoreReplayed %.0f", c.storeAppended, c.storeReplayed)
	}

	var cpu, hwm float64
	for i := range c.cpuUS {
		cpu += c.cpuUS[i]
		hwm += c.hwmMB[i]
	}
	r.extra = append(r.extra, fmt.Sprintf("open loop: broker cpu %.3f us per event over %d events", r.openCPU/float64(r.openEvents), r.openEvents))
	r.e2e["cpu_us_per_ev"] = metric{cpu / float64(published), "us", published}
	r.extra = append(r.extra, fmt.Sprintf("peak resident memory: %.2f MB summed VmHWM over %d brokers", hwm, len(r.brokers)))
	r.e2e["rss_mb"] = metric{median(rss), "MB", len(rss)}
	r.e2e["setup_s"] = metric{median(r.setupS), "s", len(r.setupS)}
	if len(r.lat) >= minLatencySamples {
		r.e2e["p50_us"] = metric{windowed(r.lat, 0.5), "us", len(r.lat)}
		// Not gated: on loopback with two cores the tail above the median
		// is where scheduler and collector stalls land, and it moves
		// with the machine's other load by more than any bound.
		r.e2e["p90_us"] = metric{windowed(r.lat, 0.9), "us", len(r.lat)}
		r.e2e["p99_us"] = metric{windowed(r.lat, 0.99), "us", len(r.lat)}
	} else {
		r.invalid = append(r.invalid, fmt.Sprintf("only %d latency samples; p99 needs %d", len(r.lat), minLatencySamples))
	}
	if len(r.subRTT) > 0 {
		s := sortedCopy(r.subRTT)
		r.e2e["sub_p50_us"] = metric{quantile(s, 0.5), "us", len(s)}
		r.e2e["sub_p99_us"] = metric{quantile(s, 0.99), "us", len(s)}
	}
	return nil
}

// verify runs the oracle over everything delivered.
func (r *runner) verify() verdict {
	got := r.deliveries()
	var raws []*event.Raw
	if r.rs != nil || len(r.histRaw) > 0 {
		raws = append(raws, r.histRaw...)
		if r.rs != nil {
			r.rs.mu.Lock()
			raws = append(raws, r.rs.raws...)
			r.rs.mu.Unlock()
		}
	}
	// The stored filters must match what was actually delivered, and the
	// bytes must be the ones published under that ID.
	bad := make(map[int]bool)
	for i, raw := range raws {
		want := r.in.eventFor(got[i].id)
		want.ID = got[i].id
		if !bytes.Equal(raw.Bytes(), event.EncodeRaw(want).Bytes()) || !r.stored.matches(raw) {
			bad[i] = true
		}
	}
	ids := make([]uint64, 0, streamID(r.next))
	for id := uint64(1); id < r.nextProbe; id++ {
		ids = append(ids, id)
	}
	for id := streamID(0); id < streamID(r.next); id++ {
		ids = append(ids, id)
	}
	spec := checkSpec{
		published: r.publishedID,
		must:      r.mustID,
		may: func(id uint64) bool {
			if raws != nil {
				return true // checked on the delivered bytes above
			}
			return r.stored.matches(r.in.eventFor(id))
		},
		ids: ids,
	}
	if r.cfg.workload == "catchup" {
		for _, p := range r.phases {
			if p.name == "away" {
				spec.backlogLo, spec.backlogHi = p.first, p.last
			}
		}
	}
	v := check(spec, got)
	v.Unexpected += len(bad)
	return v
}

// report prints the human-readable summary and returns the JSON line's
// fields.
func (r *runner) phasesLine() string {
	var parts []string
	for _, p := range r.phases {
		parts = append(parts, fmt.Sprintf("%s %d ev in %.2fs", p.name, p.count(), secs(p.end-p.start)))
	}
	return strings.Join(parts, ", ")
}

func mkdirRun(base, workload string, seed uint64) (string, error) {
	dir := filepath.Join(base, fmt.Sprintf("%s-%d-%d", workload, seed, os.Getpid()))
	return dir, os.MkdirAll(dir, 0o755)
}
