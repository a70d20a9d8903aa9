package core

import (
	"sync"

	"launchmon/internal/coll"
	"launchmon/internal/lmonp"
	"launchmon/internal/vtime"
)

// This file is the one demultiplexer of a master link — the LMONP
// connection between the front end and a fabric's master daemon — used by
// both of its ends: the FE session's per-fabric reader and the master
// daemon's FE router. An lmonp connection has exactly one reader, so one
// goroutine owns the read side and sorts messages into the tool-data
// queue (SendTo*/RecvFrom*), the lockstep collective queue (untagged
// plane operations share one ordered queue, so an op/tag mismatch still
// errors eagerly) and per-tag queues for user-tagged streams. Every other
// message goes to the owner's handler: status events and metrics at the
// FE, a protocol error at the master. The master starts its router lazily
// on the first read-side use — never during init, where the seed pipeline
// (seedSourceFromFE) still reads the connection directly, and never at
// all on daemons that only ever push data up.

// collEvent is one routed collective frame — or the decode error that
// poisoned its stream, so a malformed frame fails the pending collective
// instead of leaving it waiting for an end marker that never comes.
type collEvent struct {
	f   coll.Frame
	err error
}

// linkDemux sorts one master link's tool data and collective frames.
type linkDemux struct {
	sim  *vtime.Sim
	usr  *vtime.Chan[[]byte]    // TypeUsrData payloads
	lock *vtime.Chan[collEvent] // lockstep-tagged collective frames

	mu     sync.Mutex
	tags   map[uint32]*vtime.Chan[collEvent] // user-tagged streams
	bad    error                             // poison: fails current and future tagged streams
	closed bool
	err    error // why the link stopped (recorded by close)
}

func newLinkDemux(sim *vtime.Sim) *linkDemux {
	return &linkDemux{sim: sim, usr: vtime.NewChan[[]byte](sim), lock: vtime.NewChan[collEvent](sim)}
}

// serve owns conn's read side until the link fails: tool data and
// collective frames go to their queues, any other message to other. It
// returns the read error, or the first error other returns; the caller
// then closes the demux.
func (dm *linkDemux) serve(conn *lmonp.Conn, other func(*lmonp.Msg) error) error {
	for {
		msg, err := conn.Recv()
		if err != nil {
			return err
		}
		switch msg.Type {
		case lmonp.TypeUsrData:
			dm.usr.Send(msg.UsrData)
		case lmonp.TypeCollChunk, lmonp.TypeCollEnd:
			dm.route(coll.DecodeMsg(msg.Type == lmonp.TypeCollEnd, msg.Payload, msg.UsrData))
		default:
			if err := other(msg); err != nil {
				return err
			}
		}
	}
}

// route queues one decoded collective frame on its stream.
func (dm *linkDemux) route(f coll.Frame, err error) {
	if err == nil && f.H.Tag < coll.MinUserTag {
		dm.lock.Send(collEvent{f: f})
		return
	}
	dm.mu.Lock()
	defer dm.mu.Unlock()
	if err == nil {
		// Sent under mu, so next's retire check cannot interleave with it.
		dm.tagQLocked(f.H.Tag).Send(collEvent{f: f})
		return
	}
	// An undecodable frame names no trustworthy tag: poison the lockstep
	// queue and every tagged stream, current and future, so no pending
	// collective waits for an end marker that never comes.
	dm.lock.Send(collEvent{err: err})
	if dm.bad == nil {
		dm.bad = err
	}
	for _, q := range dm.tags {
		q.Send(collEvent{err: err})
	}
}

// tagQLocked returns (creating on demand) one tagged stream's queue. A
// queue created after a poison comes pre-poisoned, one created after
// close comes closed: a late subscriber observes the failure instead of
// parking forever.
func (dm *linkDemux) tagQLocked(tag uint32) *vtime.Chan[collEvent] {
	if dm.tags == nil {
		dm.tags = make(map[uint32]*vtime.Chan[collEvent])
	}
	q := dm.tags[tag]
	if q == nil {
		q = vtime.NewChan[collEvent](dm.sim)
		if dm.bad != nil {
			q.Send(collEvent{err: dm.bad})
		}
		if dm.closed {
			q.Close()
		}
		dm.tags[tag] = q
	}
	return q
}

// next yields the next event of a collective stream; ok is false once
// the link closed. A user tag's queue is retired at its stream's end
// marker so tag state does not accumulate across collectives — unless
// the peer already queued the next operation under the same tag, which
// must stay in line for it.
func (dm *linkDemux) next(tag uint32) (ev collEvent, ok bool) {
	if tag < coll.MinUserTag {
		return dm.lock.Recv()
	}
	dm.mu.Lock()
	q := dm.tagQLocked(tag)
	dm.mu.Unlock()
	if ev, ok = q.Recv(); ok && ev.err == nil && ev.f.End {
		dm.mu.Lock()
		if dm.tags[tag] == q && q.Len() == 0 {
			delete(dm.tags, tag)
		}
		dm.mu.Unlock()
	}
	return ev, ok
}

// close records why the link stopped and wakes every consumer: tool-data
// reads, the lockstep queue and every tagged stream observe the end.
func (dm *linkDemux) close(err error) {
	dm.mu.Lock()
	if !dm.closed {
		dm.closed = true
		dm.err = err
	}
	for _, q := range dm.tags {
		q.Close()
	}
	dm.mu.Unlock()
	dm.usr.Close()
	dm.lock.Close()
}

// cause reports why the link stopped.
func (dm *linkDemux) cause() error {
	dm.mu.Lock()
	defer dm.mu.Unlock()
	return dm.err
}
