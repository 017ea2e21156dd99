package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"eventsys/internal/broker"
	"eventsys/internal/event"
	"eventsys/internal/filter"
	"eventsys/internal/flow"
	"eventsys/internal/transport"
)

// pipelineDepth bounds the subscriptions in flight on one connection.
const pipelineDepth = 128

// origin is the run's clock origin; every timestamp is ns since it.
var origin = time.Now()

func now() int64 { return int64(time.Since(origin)) }

// reply is a SubscribeReply stamped on arrival.
type reply struct {
	transport.SubscribeReply
	at int64
}

// rawSub is a subscriber speaking transport frames directly, for the two
// things the library Subscriber cannot do: hold many filters under one
// subscriber ID on one connection, and drop the socket without
// unsubscribing so the broker keeps the durable cursor. It grants credit
// exactly as the library client does.
type rawSub struct {
	id   string
	addr string
	conn net.Conn

	writeMu sync.Mutex
	meter   *flow.Meter
	replies chan reply
	done    chan struct{}

	inbox
}

// inbox collects one subscriber connection's deliveries in arrival order
// and wakes whoever waits for them.
type inbox struct {
	mu     sync.Mutex
	got    []delivery
	raws   []*event.Raw // rawSub only: the delivered bytes, for the oracle
	notify chan struct{}
}

func (b *inbox) add(d delivery, raw *event.Raw) {
	b.mu.Lock()
	b.got = append(b.got, d)
	if raw != nil {
		b.raws = append(b.raws, raw)
	}
	b.mu.Unlock()
	select {
	case b.notify <- struct{}{}:
	default:
	}
}

// since returns the deliveries from index i on.
func (b *inbox) since(i int) []delivery {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]delivery(nil), b.got[min(i, len(b.got)):]...)
}

func (b *inbox) received() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.got)
}

// dialRaw opens a subscriber connection and sends the handshake.
func dialRaw(addr, id string) (*rawSub, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	s := &rawSub{
		id:    id,
		addr:  addr,
		conn:  c,
		meter: flow.NewMeter(0),
		// One slot per subscription the benchmark can have in flight.
		replies: make(chan reply, pipelineDepth),
		done:    make(chan struct{}),
		inbox:   inbox{notify: make(chan struct{}, 1)},
	}
	if err := s.write(transport.Hello{Kind: transport.PeerSubscriber, ID: id}); err != nil {
		c.Close()
		return nil, err
	}
	return s, nil
}

func (s *rawSub) write(m transport.Message) error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	return transport.WriteFrame(s.conn, m)
}

// awaitReply reads frames synchronously until the subscribe reply, before
// the read loop runs (the Figure 5 walk's per-hop exchange).
func (s *rawSub) awaitReply(fr *transport.FrameReader) (transport.SubscribeReply, error) {
	_ = s.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	defer s.conn.SetReadDeadline(time.Time{})
	for {
		m, err := fr.ReadFrame()
		if err != nil {
			return transport.SubscribeReply{}, fmt.Errorf("awaiting subscribe reply from %s: %w", s.addr, err)
		}
		if r, ok := m.(transport.SubscribeReply); ok {
			return r, nil
		}
	}
}

// start runs the read loop and grants the initial credit window.
func (s *rawSub) start(fr *transport.FrameReader) error {
	go s.readLoop(fr)
	return s.write(transport.Credit{Grant: uint32(s.meter.Window())})
}

func (s *rawSub) readLoop(fr *transport.FrameReader) {
	defer close(s.done)
	for {
		m, err := fr.ReadFrame()
		if err != nil {
			return
		}
		switch f := m.(type) {
		case transport.SubscribeReply:
			s.replies <- reply{f, now()}
		case transport.Deliver:
			if f.Event == nil {
				continue
			}
			s.add(delivery{f.Event.EventID(), now()}, f.Event)
			if g := s.meter.Consume(1); g > 0 {
				if s.write(transport.Credit{Grant: uint32(g)}) != nil {
					return
				}
			}
		}
	}
}

// subscribeAll pipelines Subscribe frames, at most pipelineDepth ahead of
// the replies, and returns the stored filters in order.
func (s *rawSub) subscribeAll(fs []*filter.Filter) ([]*filter.Filter, error) {
	sent := 0
	stored := make([]*filter.Filter, len(fs))
	for i := range fs {
		for ; sent < len(fs) && sent < i+pipelineDepth; sent++ {
			if err := s.write(transport.Subscribe{SubscriberID: s.id, Filter: fs[sent]}); err != nil {
				return nil, err
			}
		}
		r, err := s.nextReply(30 * time.Second)
		if err != nil {
			return nil, err
		}
		if !r.Accepted {
			return nil, fmt.Errorf("subscription %d refused by %s (redirect to %q)", i, s.addr, r.TargetAddr)
		}
		stored[i] = r.Stored
	}
	return stored, nil
}

func (s *rawSub) nextReply(timeout time.Duration) (reply, error) {
	select {
	case r := <-s.replies:
		return r, nil
	case <-s.done:
		return reply{}, fmt.Errorf("connection to %s closed awaiting a subscribe reply", s.addr)
	case <-time.After(timeout):
		return reply{}, fmt.Errorf("no subscribe reply from %s within %v", s.addr, timeout)
	}
}

// subscribeRTT subscribes one filter and returns its stored form and the
// Subscribe→SubscribeReply round trip.
func (s *rawSub) subscribeRTT(f *filter.Filter) (*filter.Filter, int64, error) {
	t0 := now()
	if err := s.write(transport.Subscribe{SubscriberID: s.id, Filter: f}); err != nil {
		return nil, 0, err
	}
	r, err := s.nextReply(10 * time.Second)
	if err != nil {
		return nil, 0, err
	}
	if !r.Accepted {
		return nil, 0, fmt.Errorf("churn subscription refused by %s", s.addr)
	}
	return r.Stored, r.at - t0, nil
}

func (s *rawSub) unsubscribe(stored *filter.Filter) error {
	return s.write(transport.Unsubscribe{ID: s.id, Filter: stored})
}

// drop closes the socket without unsubscribing: the broker keeps the
// subscriber's filters and durable cursor and stores what it misses.
func (s *rawSub) drop() {
	s.conn.Close()
	<-s.done
}

// walk places a subscriber by the Figure 5 protocol: it subscribes the
// first filter at rootAddr and follows redirects to the accepting broker,
// where the returned connection stays open (its read loop not started).
func walk(rootAddr, id string, first *filter.Filter) (*rawSub, *transport.FrameReader, *filter.Filter, error) {
	addr := rootAddr
	for hop := 0; hop < 8; hop++ {
		s, err := dialRaw(addr, id)
		if err != nil {
			return nil, nil, nil, err
		}
		fr := transport.NewFrameReader(s.conn)
		if err := s.write(transport.Subscribe{SubscriberID: id, Filter: first}); err != nil {
			s.conn.Close()
			return nil, nil, nil, err
		}
		r, err := s.awaitReply(fr)
		if err != nil {
			s.conn.Close()
			return nil, nil, nil, err
		}
		if r.Accepted {
			return s, fr, r.Stored, nil
		}
		s.conn.Close()
		if r.TargetAddr == "" {
			return nil, nil, nil, fmt.Errorf("subscription refused by %s without a redirect", addr)
		}
		addr = r.TargetAddr
	}
	return nil, nil, nil, fmt.Errorf("too many redirects placing %s", id)
}

// sink is the library Subscriber used where one filter suffices (chain).
type sink struct {
	sub *broker.Subscriber
	inbox
}

func dialSink(addr, id string, f *filter.Filter) (*sink, error) {
	k := &sink{inbox: inbox{notify: make(chan struct{}, 1)}}
	sub, err := broker.DialSubscriber(addr, id, f, broker.SubscriberOptions{}, func(e *event.Event) {
		k.add(delivery{e.ID, now()}, nil)
	})
	if err != nil {
		return nil, err
	}
	k.sub = sub
	return k, nil
}
