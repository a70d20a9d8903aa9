package iccl

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"launchmon/internal/coll"
	"launchmon/internal/lmonp"
	"launchmon/internal/simnet"
	"launchmon/internal/vtime"
)

// This file is the one owner of every ICCL tree connection after
// bootstrap: an event-driven framer registered on the conn (simnet
// Conn.Handle via lmonp.HandleFrames) that charges each arriving frame
// the per-message cost on a busy-until horizon and sorts it into one of
// four places — the base queue (barrier/fold/bcast/gather of the Comm
// collectives), the heartbeat queue (health link reuse, uncharged), its
// tag queue (collective-plane streams), or its credit gate (the
// flow-control window). No goroutine is parked per link.
//
// Whichever comes first installs the framer: ShareLinks (the failure
// detector's link reuse) or the first plane operation; installing twice
// is a no-op. It is never installed at plane creation, so the session
// seed (which flows through the same connections during bootstrap) and
// the bootstrap-era direct reads — the ready gather and the launch-time
// FoldUp — keep their blocking reads and their timing.

// horizon is the busy-until clock of an event-driven framer: it
// reproduces the charging of a serial reader loop (read, then compute)
// without a goroutine — frame i is delivered at
// max(arrival_i, done_{i-1}) + cost. It is only touched from scheduler
// callbacks, which never overlap.
type horizon struct {
	sim       *vtime.Sim
	busyUntil time.Duration
}

// charge runs fn once a frame arriving now has been handled for cost,
// behind every frame charged before it.
func (h *horizon) charge(cost time.Duration, fn func()) {
	now := h.sim.Now()
	h.busyUntil = max(now, h.busyUntil) + cost
	h.sim.After(h.busyUntil-now, fn)
}

// behind runs fn, uncharged, once every frame charged so far is
// delivered — at once when the horizon is idle.
func (h *horizon) behind(fn func()) {
	now := h.sim.Now()
	if h.busyUntil <= now {
		fn()
		return
	}
	h.sim.After(h.busyUntil-now, fn)
}

// link owns one tree connection's receive side.
type link struct {
	c  *Comm
	hz horizon

	mu     sync.Mutex
	base   *vtime.Chan[[]byte]                // non-plane tree frames
	hb     *vtime.Chan[[]byte]                // heartbeat payloads (health link reuse)
	tags   map[uint32]*vtime.Chan[coll.Frame] // per-tag collective streams
	load   map[uint32]queueLoad               // queued chunks and body bytes per tag
	gates  map[uint32]*creditGate             // send-side credit per tag
	err    error
	closed bool
}

// own idempotently installs the framer on every tree connection of the
// communicator. After it runs, base collective receives (Comm.Barrier,
// FoldUp, ...) are served from the base queue — they must not overlap
// its installation on the same link direction, which holds for the
// session lifecycle (init-time gathers precede ShareLinks and plane
// traffic; the finalize barrier follows them).
func (c *Comm) own() {
	c.linkMu.Lock()
	defer c.linkMu.Unlock()
	if c.links != nil {
		return
	}
	c.links = make(map[*simnet.Conn]*link, len(c.children)+1)
	conns := c.children
	if c.parent != nil {
		conns = append([]*simnet.Conn{c.parent}, conns...)
	}
	sim := c.p.Sim()
	for _, conn := range conns {
		l := &link{
			c:    c,
			hz:   horizon{sim: sim},
			base: vtime.NewChan[[]byte](sim),
			hb:   vtime.NewChan[[]byte](sim),
		}
		c.links[conn] = l
		lmonp.HandleFrames(conn, l.frame)
	}
}

// linkFor returns the owner of conn, or nil before own (or when conn is
// not a tree link of this communicator).
func (c *Comm) linkFor(conn *simnet.Conn) *link {
	c.linkMu.Lock()
	defer c.linkMu.Unlock()
	return c.links[conn]
}

// frame is the framer: the connection hands it every arriving frame, or
// the error that ended the connection. Heartbeats are charged by the
// health layer when it consumes them, at its own (cheaper) per-message
// cost — but one queued behind a still-cooking frame waits for it, and so
// does the failure, so in-flight deliveries are not dropped.
func (l *link) frame(raw []byte, err error) {
	if err != nil {
		l.hz.behind(func() { l.fail(err) })
		return
	}
	if len(raw) >= 4 && binary.BigEndian.Uint32(raw) == opHeartbeat {
		hb := raw[4:]
		l.hz.behind(func() { l.hb.Send(hb) })
		return
	}
	l.hz.charge(l.c.cfg.PerMsgCost, func() { l.deliver(raw) })
}

// deliver routes one charged frame: collective-plane frames by tag,
// credit frames to their gates, everything else to the base queue. It
// never blocks on a consumer (all queues are unbounded), so one stalled
// tagged stream cannot head-of-line-block another tag or the credits
// that would un-stall it. A severed link drops what still arrives.
func (l *link) deliver(raw []byte) {
	l.mu.Lock()
	closed := l.closed
	l.mu.Unlock()
	if closed {
		return
	}
	l.c.countRx(raw)
	if len(raw) >= 4 {
		switch binary.BigEndian.Uint32(raw) {
		case opCollChunk, opCollEnd:
			f, err := parseFrameOp(raw, opCollChunk, opCollEnd)
			if err != nil {
				l.fail(err)
				return
			}
			l.enqueue(f)
			return
		case opCredit:
			f, err := parseCredit(raw)
			if err != nil {
				l.fail(err)
				return
			}
			l.credit(f.H.Tag, f.Credits())
			return
		}
	}
	l.base.Send(raw)
}

// enqueue routes one collective frame to its tag queue, maintaining the
// interior-depth observability gauges: coll.queue.depth.max is the
// high-water data-chunk count of any one (link, tag) queue at this
// daemon, coll.link.bytes.max the high-water queued body bytes. End
// markers ride outside the credit window (they carry no payload and
// each stream has exactly one), so the depth gauge excludes them and
// the flow-control invariant is exact: depth ≤ window when the window
// is on; O(stream) when off — also when a reused tag's queue still holds
// the previous operation's End ahead of the next one's chunks. The Send
// happens under l.mu so that dropTag's emptiness check cannot
// interleave with it.
func (l *link) enqueue(f coll.Frame) {
	l.mu.Lock()
	q := l.tagQLocked(f.H.Tag)
	if l.load == nil {
		l.load = make(map[uint32]queueLoad)
	}
	ld := l.load[f.H.Tag].add(f, 1)
	l.load[f.H.Tag] = ld
	q.Send(f)
	l.mu.Unlock()
	if !f.End {
		l.c.collDepthMax.SetMax(uint64(ld.chunks))
	}
	l.c.collBytesMax.SetMax(uint64(ld.bytes))
}

// dequeued tells the link one frame left its tag queue (consumed by
// recvTagged), keeping the queue-load accounting honest.
func (l *link) dequeued(f coll.Frame) {
	l.mu.Lock()
	l.load[f.H.Tag] = l.load[f.H.Tag].add(f, -1)
	l.mu.Unlock()
}

// queueLoad is what one tag queue holds: data chunks (End markers
// excluded) and body bytes.
type queueLoad struct{ chunks, bytes int }

// add accounts one frame entering (n = 1) or leaving (n = -1) the queue.
func (ld queueLoad) add(f coll.Frame, n int) queueLoad {
	if !f.End {
		ld.chunks += n
	}
	ld.bytes += n * len(f.Body)
	return ld
}

// tagQ returns (creating on demand) the queue of one tagged stream. On
// a severed link the returned queue is closed, so receivers observe the
// failure instead of parking forever.
func (l *link) tagQ(tag uint32) *vtime.Chan[coll.Frame] {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tagQLocked(tag)
}

func (l *link) tagQLocked(tag uint32) *vtime.Chan[coll.Frame] {
	if l.tags == nil {
		l.tags = make(map[uint32]*vtime.Chan[coll.Frame])
	}
	q := l.tags[tag]
	if q == nil {
		q = vtime.NewChan[coll.Frame](l.c.p.Sim())
		if l.closed {
			q.Close()
		}
		l.tags[tag] = q
	}
	return q
}

// dropTag retires a completed stream's queue so tag state does not
// accumulate across collectives — but only an empty one: a fast peer may
// already have queued the next operation's first chunk under the same
// tag, and that chunk must stay in line for it.
func (l *link) dropTag(tag uint32) {
	l.mu.Lock()
	if q := l.tags[tag]; q != nil && q.Len() == 0 {
		delete(l.tags, tag)
		delete(l.load, tag)
	}
	l.mu.Unlock()
}

// gate returns (creating on demand, preloaded with window tokens) the
// send-side credit gate of one tagged stream on this link. A gate whose
// previous stream ended with credits still in flight is reused by the
// next operation on the same tag, so those late credits refill the one
// window instead of widening a fresh one.
func (l *link) gate(tag uint32, window int) *creditGate {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.gates == nil {
		l.gates = make(map[uint32]*creditGate)
	}
	g := l.gates[tag]
	if g == nil {
		g = newCreditGate(l.c.p.Sim(), window)
		if l.closed {
			g.sever()
		}
		l.gates[tag] = g
	}
	g.ended = false
	return g
}

// endGate marks a stream's End frame as on the wire and retires its
// credit gate once every credit is back; until then credits still in
// flight land in it (see credit).
func (l *link) endGate(tag uint32) {
	l.mu.Lock()
	if g := l.gates[tag]; g != nil {
		g.ended = true
		if g.full() {
			delete(l.gates, tag)
		}
	}
	l.mu.Unlock()
}

// credit applies n returned credits to the tag's gate, retiring a gate
// whose stream has ended once its last credit is back.
func (l *link) credit(tag uint32, n uint32) {
	l.mu.Lock()
	if g := l.gates[tag]; g != nil {
		g.credit(int(n))
		if g.ended && g.full() {
			delete(l.gates, tag)
		}
	}
	l.mu.Unlock()
}

// fail severs the link: the connection died (or delivered garbage), so
// every consumer — base and heartbeat receivers, tagged receivers,
// senders blocked on credit — must wake and observe the failure.
func (l *link) fail(err error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	l.err = err
	// Under mu: consumers retiring their tags write these maps.
	for _, q := range l.tags {
		q.Close()
	}
	for _, g := range l.gates {
		g.sever()
	}
	l.mu.Unlock()
	l.base.Close()
	l.hb.Close()
}

// takeErr reports why the link severed (ErrSevered-wrapped).
func (l *link) takeErr() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err == nil || l.err == ErrSevered {
		return ErrSevered
	}
	return fmt.Errorf("%w: %v", ErrSevered, l.err)
}

// creditGate is the send side of the per-(link, tag) outstanding-chunk
// window: acquire takes one credit before a chunk goes on the wire
// (blocking in virtual time while the window is exhausted), credit
// returns credits as the receiver consumes chunks. A nil tokens channel
// means flow control is off (the unbounded ablation baseline).
type creditGate struct {
	tokens *vtime.Chan[struct{}]
	window int
	ended  bool // the last stream's End is on the wire (guarded by link.mu)
}

func newCreditGate(sim *vtime.Sim, window int) *creditGate {
	g := &creditGate{window: window}
	if window > 0 {
		g.tokens = vtime.NewChan[struct{}](sim)
		for i := 0; i < window; i++ {
			g.tokens.Send(struct{}{})
		}
	}
	return g
}

// acquire blocks until a credit is available; it fails when the link
// severed while the sender was waiting.
func (g *creditGate) acquire() error {
	if g.tokens == nil {
		return nil
	}
	if _, ok := g.tokens.Recv(); !ok {
		return ErrSevered
	}
	return nil
}

// credit returns n credits to the window.
func (g *creditGate) credit(n int) {
	if g.tokens == nil {
		return
	}
	for i := 0; i < n; i++ {
		g.tokens.Send(struct{}{})
	}
}

// full reports whether every credit of the window is back.
func (g *creditGate) full() bool { return g.tokens == nil || g.tokens.Len() == g.window }

// sever wakes any sender blocked in acquire.
func (g *creditGate) sever() {
	if g.tokens != nil {
		g.tokens.Close()
	}
}

// parseCredit decodes one opCredit tree frame: the opcode and the
// encoded coll header whose Index field carries the credit count.
func parseCredit(raw []byte) (coll.Frame, error) {
	rd := lmonp.NewReader(raw)
	if _, err := rd.Uint32(); err != nil {
		return coll.Frame{}, err
	}
	hraw, err := rd.Bytes()
	if err != nil {
		return coll.Frame{}, err
	}
	h, err := coll.DecodeHeader(lmonp.NewReader(hraw))
	if err != nil {
		return coll.Frame{}, err
	}
	if h.Op != coll.OpCredit {
		return coll.Frame{}, fmt.Errorf("%w: op %v in a credit frame", ErrProtocol, h.Op)
	}
	return coll.Frame{H: h}, nil
}

// sendCredit returns n credits for a tagged stream to the peer on conn.
// Credit frames ride the generic tree-frame path (counted in the iccl
// tx metrics plus a dedicated credit counter) but deliberately not the
// coll.tx data counters, so wire-byte invariants on collective payload
// still hold with flow control on.
func (c *Comm) sendCredit(conn *simnet.Conn, tag uint32, n uint32) error {
	cf := coll.CreditFrame(tag, n)
	b := lmonp.AppendUint32(nil, opCredit)
	b = lmonp.AppendBytes(b, cf.H.Encode())
	c.creditTxFrames.Inc()
	return c.send(conn, b)
}
