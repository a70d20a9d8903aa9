package core

import (
	"fmt"

	"launchmon/internal/engine"
	"launchmon/internal/lmonp"
	"launchmon/internal/proctab"
	"launchmon/internal/vtime"
)

// This file is the front-end half of the launch pipeline (DESIGN.md
// "Life of a session"). One seed relay per fabric accepts the master
// daemon's connection and forwards the session seed to it. Under the
// default cut-through mode the relay runs from the start: the FE relays
// each engine chunk toward the BE master as it arrives, and the FE↔master
// handshake (with FEData ahead of the table) begins the moment the master
// dials in, typically while the RM is still spawning the master's sibling
// daemons. The store-forward baseline is the same relay with its start
// held back until the FE holds the full table and the spawn status.

// SeedMode selects how a session's seed — the RPDTAB plus the
// piggybacked Options.FEData — reaches every back-end daemon.
type SeedMode int

const (
	// SeedCutThrough (the default) streams the seed end to end: the FE
	// relays engine chunks to the master as they arrive, and the master
	// injects them into an ICCL seed stream that interior daemons forward
	// while the tree is still forming. No component ever store-and-forwards
	// the full table.
	SeedCutThrough SeedMode = iota
	// SeedStoreForward is the serialized baseline (the paper's Figure 2
	// pipeline): full-table buffering at the FE — the seed relay starts
	// only once the table and the spawn status are in — and again at the
	// master, which broadcasts it as one monolithic frame after bootstrap.
	// Kept for the launch-pipeline ablation and for the §4 analytic model,
	// whose decomposition assumes the serialized event chain.
	SeedStoreForward
)

// String names the mode for diagnostics and bench output.
func (m SeedMode) String() string {
	if m == SeedStoreForward {
		return "store-forward"
	}
	return "cut-through"
}

// envValue renders the mode for the daemon bootstrap environment.
func (m SeedMode) envValue() string { return m.String() }

// TableMode selects how much of the RPDTAB each daemon retains under the
// cut-through seed pipeline.
type TableMode int

const (
	// TableSliced (the default) keeps only each daemon's own rank slice:
	// interior daemons decode incoming seed chunks, retain the entries
	// whose host they own, and re-pack the rest into per-subtree streams
	// (iccl.SeedRouter), while the full table lives once per session in a
	// shared immutable index (sessionShared). Per-daemon table memory is
	// O(K/daemons) instead of O(K) — O(K) total across the fabric instead
	// of O(K²)-ish K x daemons.
	TableSliced TableMode = iota
	// TableFull retains the complete table at every daemon — the ablation
	// baseline for the memory model, and the only shape the store-forward
	// seed pipeline supports (store-forward ignores TableMode).
	TableFull
)

// String names the mode for diagnostics and bench output.
func (m TableMode) String() string {
	if m == TableFull {
		return "full"
	}
	return "sliced"
}

// envValue renders the mode for the daemon bootstrap environment.
func (m TableMode) envValue() string { return m.String() }

// seedItem is one unit of the FE→master relay: an RPDTAB chunk, or the
// end marker carrying the table's entry count and the rolling digest of
// the chunk checksums (sum).
type seedItem struct {
	chunk []byte
	end   bool
	total uint64
	sum   uint64
}

// relayResult is what the seed-relay goroutine hands back to the launch
// path: the established master connection, the decoded ready message, and
// the relay's share of the timeline (e7, e10, overlap marks).
type relayResult struct {
	conn    *lmonp.Conn
	infos   []DaemonInfo
	tl      engine.Timeline
	obsBlob []byte // harvested metrics snapshot off the ready message
	err     error
}

// seedRelay accepts a fabric's master-daemon connection and forwards the
// seed stream to it. Under cut-through it runs concurrently with whatever
// the launch path is doing (draining the engine chunk stream on the BE
// fabric, awaiting the MW spawn status on the MW fabric); under
// store-forward the launch path starts it only after that, with the whole
// seed already queued. The fabric profile selects the LMONP class, the
// transport role, and which timeline marks the relay stamps.
type seedRelay struct {
	s       *Session
	fab     fabricProfile
	feData  []byte
	items   *vtime.Chan[seedItem]
	result  *vtime.Chan[relayResult]
	started bool

	markAccept, markFwd, markReady string
}

// newSeedRelay builds a relay for the given fabric with its mark names.
func newSeedRelay(s *Session, fab fabricProfile, feData []byte, markAccept, markFwd, markReady string) *seedRelay {
	sim := s.p.Sim()
	return &seedRelay{
		s: s, fab: fab, feData: feData,
		items:      vtime.NewChan[seedItem](sim),
		result:     vtime.NewChan[relayResult](sim),
		markAccept: markAccept, markFwd: markFwd, markReady: markReady,
	}
}

// start launches the relay goroutine.
func (r *seedRelay) start() {
	r.started = true
	r.s.p.Sim().Go(fmt.Sprintf("fe-sess-%d-%s-seed-relay", r.s.ID, r.fab.kind), r.run)
}

// abandon stops the relay of a failed launch, then calls done. Closing
// the item queue wakes a relay parked on it and stops further
// forwarding: the relay checks the queue's closed flag before each item,
// so even a pre-fed queue stops streaming to a stale dial — queued values
// surviving Close would otherwise keep the stream flowing. A relay parked
// in Endpoint.Accept is released by the session's close of the endpoint.
// One that has relayed the end marker is parked awaiting the master's
// ready and would otherwise hand back an open connection nobody reads —
// leaving the master (and with it the whole daemon tree) waiting on the
// session forever. A reaper drains the result, closes that connection
// and only then calls done, so a retry cannot race a stale Accept for the
// next master's dial. A relay that never started needs no reaper.
func (r *seedRelay) abandon(done func()) {
	r.items.Close()
	if !r.started {
		done()
		return
	}
	r.s.p.Sim().Go(fmt.Sprintf("fe-sess-%d-%s-relay-reaper", r.s.ID, r.fab.kind), func() {
		if res, ok := r.result.Recv(); ok && res.conn != nil {
			res.conn.Close()
		}
		done()
	})
}

// awaitMaster waits for the relay's outcome and records the fabric.
func (r *seedRelay) awaitMaster() (*feFabric, error) {
	res, ok := r.result.Recv()
	if !ok {
		return nil, fmt.Errorf("core: session %d: %s seed relay lost", r.s.ID, r.fab.kind)
	}
	if res.err != nil {
		return nil, res.err
	}
	s := r.s
	s.Timeline.Merge(res.tl)
	s.stashObsHarvest(r.fab.kind, res.obsBlob)
	return &feFabric{prof: r.fab, conn: res.conn, dm: newLinkDemux(s.p.Sim()), infos: res.infos}, nil
}

func (r *seedRelay) run() {
	res := r.relay()
	if res.err != nil && res.conn != nil {
		res.conn.Close()
		res.conn = nil
	}
	r.result.Send(res)
}

func (r *seedRelay) relay() relayResult {
	s := r.s
	sim := s.p.Sim()
	sp := s.obsRec.Start("seed-relay-"+r.fab.kind, -1)
	defer sp.End()
	relayChunks := s.obsCounter("fe.relay.chunks")
	relayBytes := s.obsCounter("fe.relay.bytes")
	conn, err := s.ep.Accept(r.fab.role, s.timeout)
	if err != nil {
		return relayResult{err: fmt.Errorf("core: %s master daemon did not connect: %w", r.fab.kind, err)}
	}
	var tl engine.Timeline
	tl.Mark(r.markAccept, sim.Now())
	// FEData rides the handshake ahead of the proctab stream, so every
	// daemon has its bootstrap data before the first table chunk lands.
	if err := conn.Send(&lmonp.Msg{Class: r.fab.class, Type: lmonp.TypeHandshake, UsrData: r.feData}); err != nil {
		return relayResult{conn: conn, err: fmt.Errorf("core: handshake to %s master: %w", r.fab.kind, err)}
	}
	first := true
	for {
		if r.items.Closed() {
			return relayResult{conn: conn, err: fmt.Errorf("core: session %d: seed relay aborted", s.ID)}
		}
		it, ok := r.items.Recv()
		if !ok {
			return relayResult{conn: conn, err: fmt.Errorf("core: session %d: seed relay aborted", s.ID)}
		}
		if first {
			tl.Mark(r.markFwd, sim.Now())
			first = false
		}
		if it.end {
			err = conn.Send(&lmonp.Msg{
				Class:   r.fab.class,
				Type:    lmonp.TypeProctabEnd,
				Payload: proctab.EncodeEndMarker(it.total, it.sum),
			})
		} else {
			err = conn.Send(&lmonp.Msg{
				Class:   r.fab.class,
				Type:    lmonp.TypeProctabChunk,
				Payload: it.chunk,
			})
			relayChunks.Inc()
			relayBytes.Add(uint64(len(it.chunk)))
		}
		if err != nil {
			return relayResult{conn: conn, err: fmt.Errorf("core: relaying session seed to %s master: %w", r.fab.kind, err)}
		}
		if it.end {
			break
		}
	}
	ready, err := conn.Expect(r.fab.class, lmonp.TypeReady)
	if err != nil {
		return relayResult{conn: conn, err: fmt.Errorf("core: awaiting %s master ready: %w", r.fab.kind, err)}
	}
	tl.Mark(r.markReady, sim.Now())
	infos, masterTL, obsBlob, err := decodeReady(ready.Payload)
	if err != nil {
		return relayResult{conn: conn, err: err}
	}
	tl.Merge(masterTL)
	return relayResult{conn: conn, infos: infos, tl: tl, obsBlob: obsBlob}
}

// launchBE drains the engine's chunk stream and spawn status and relays
// the session seed to the BE master. The FE assembles its own table copy
// from the same chunks in passing. Under cut-through the relay runs from
// the start and forwards each chunk as it arrives, so the FE never waits
// for the full table before forwarding and never retransmits it after the
// status arrives; under store-forward the chunks queue until both the end
// marker and the status are in, and only then does the relay accept the
// master.
func (s *Session) launchBE(opts Options) error {
	storeForward := opts.SeedMode == SeedStoreForward
	relay := newSeedRelay(s, beFabric, opts.FEData,
		engine.MarkE7, engine.MarkSeedFwd, engine.MarkE10)
	if !storeForward {
		relay.start()
	}
	// fail abandons the relay on an engine-side error; a relay still
	// parked in Accept is released by the caller's s.close().
	fail := func(err error) error {
		relay.abandon(func() {})
		return err
	}

	var asm proctab.Assembler
	var engTL engine.Timeline
	tabDone, statusDone := false, false
	for !tabDone || !statusDone {
		msg, err := s.eng.Recv()
		if err != nil {
			return fail(err)
		}
		switch msg.Type {
		case lmonp.TypeProctabChunk:
			if tabDone {
				return fail(fmt.Errorf("core: RPDTAB chunk after end marker"))
			}
			if err := asm.Add(msg.Payload); err != nil {
				return fail(err)
			}
			relay.items.Send(seedItem{chunk: msg.Payload})
		case lmonp.TypeProctabEnd:
			if tabDone {
				return fail(fmt.Errorf("core: duplicate RPDTAB end marker"))
			}
			total, digest, err := proctab.DecodeEndMarker(msg.Payload)
			if err != nil {
				return fail(fmt.Errorf("core: RPDTAB end marker: %w", err))
			}
			if digest != asm.Digest() {
				return fail(fmt.Errorf("core: RPDTAB stream digest mismatch at FE"))
			}
			tab, err := asm.Finish(int(total))
			if err != nil {
				return fail(err)
			}
			s.tab = tab
			s.obsGauge("fe.table.bytes").SetMax(uint64(tab.MemBytes()))
			if s.tableMode == TableSliced && !storeForward {
				// Publish the shared index before relaying the end marker:
				// every daemon's seed drain completes only after this marker
				// flows through the tree, so the index is visible by the
				// time any daemon (or the tool code above it) consults it.
				idx, err := proctab.BuildIndex(tab)
				if err != nil {
					return fail(fmt.Errorf("core: building shared RPDTAB index: %w", err))
				}
				sharedSegFor(s.ID).publishIndex(idx)
			}
			relay.items.Send(seedItem{end: true, total: total, sum: digest})
			tabDone = true
		case lmonp.TypeStatus:
			status, tl, err := engine.DecodeStatus(msg.Payload)
			if err != nil {
				return fail(err)
			}
			if status != "daemons-spawned" {
				return fail(fmt.Errorf("core: engine failed: %s", status))
			}
			engTL = tl
			statusDone = true
		default:
			return fail(fmt.Errorf("core: unexpected %v message during launch", msg.Type))
		}
	}
	s.Timeline.Merge(engTL)
	if storeForward {
		relay.start()
	}
	fab, err := relay.awaitMaster()
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.be = fab
	s.mu.Unlock()
	return nil
}
