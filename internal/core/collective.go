package core

import (
	"fmt"

	"launchmon/internal/coll"
	"launchmon/internal/iccl"
	"launchmon/internal/lmonp"
)

// This file is the user-data collective plane (the successor of the flat
// SendToBE/RecvFromBE pipe for bulk tool traffic): Session.Broadcast /
// Scatter / Gather / Reduce on the front end, mirrored by the daemon-side
// Collective handle on every back-end daemon — and, since the MW fabric
// gained parity, Session.MWBroadcast / MWScatter / MWGather / MWReduce
// mirrored by Middleware.Collective over the MW tree. Payloads ride the
// fabric's ICCL k-ary tree as bounded-size chunk streams (codec
// internal/coll, routing internal/iccl); interior daemons forward — and,
// for Reduce, combine — instead of the master relaying every byte over
// its single FE link.
//
// Each plane is collective in the MPI sense: the front end and every
// daemon of the fabric must issue matching operations in the same order.
// A per-fabric tag advanced in lockstep on all participants turns order
// violations into protocol errors. Ordering guarantees: Gather results
// are rank-indexed; concat-style reductions combine in deterministic
// tree order (own subtree first, then children by rank), which is not
// rank order — tools needing rank order gather instead.

// feFabric is the front end's record of one launched fabric: the master
// connection it sends on, the demux its reader sorts that connection
// into, the fabric's lockstep collective sequence (FE side) and the
// daemon set the ready message reported.
type feFabric struct {
	prof  fabricProfile
	conn  *lmonp.Conn
	dm    *linkDemux
	seq   uint32
	infos []DaemonInfo
}

// fabric returns the record of the BE fabric, or of the MW fabric when mw
// is set: an error when the session has no middleware daemons, the
// terminal error when the session is over.
func (s *Session) fabric(mw bool) (*feFabric, error) {
	s.mu.Lock()
	fab := s.be
	if mw {
		fab = s.mw
	}
	s.mu.Unlock()
	if fab == nil && mw {
		return nil, fmt.Errorf("core: session %d has no middleware daemons", s.ID)
	}
	if fab == nil || s.closed() {
		return nil, s.closedErr()
	}
	return fab, nil
}

// stream names a collective's stream: a caller's user tag from AllocTag,
// or (user unset) the fabric's next lockstep sequence tag.
type stream struct {
	user bool
	tag  uint32
}

// lockstep selects the fabric's next lockstep sequence tag.
var lockstep = stream{}

// userTag selects an explicitly tagged stream; the tag is range-checked
// when the operation resolves it.
func userTag(tag uint32) stream { return stream{user: true, tag: tag} }

// opTag resolves a collective's stream tag: a user tag must lie in the
// user tag space, lockstep advances the fabric's sequence.
func (fab *feFabric) opTag(st stream) (uint32, error) {
	if st.user {
		return st.tag, coll.CheckUserTag(st.tag)
	}
	fab.seq++
	return fab.seq, nil
}

// AllocTag allocates a session-unique user stream tag from
// [coll.MinUserTag, coll.MaxUserTag) for the tagged collective operations
// (BroadcastTag/ScatterTag/GatherTag/ReduceTag and the MW mirrors, paired
// with the daemon-side *Tag operations under the same tag). Safe to call
// from any goroutine.
func (s *Session) AllocTag() uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	tag := coll.MinUserTag + s.userTags
	s.userTags++
	return tag
}

// sendFrameOn bridges one collective frame onto an LMONP connection —
// the single Frame→message mapping, shared by the FE sender and the
// masters' up hooks.
func sendFrameOn(c *lmonp.Conn, class lmonp.MsgClass, f coll.Frame) error {
	payload, usr := f.EncodeMsg()
	typ := lmonp.TypeCollChunk
	if f.End {
		typ = lmonp.TypeCollEnd
	}
	return c.Send(&lmonp.Msg{Class: class, Type: typ, Payload: payload, UsrData: usr})
}

// Broadcast ships data to every back-end daemon over the ICCL tree. Every
// daemon receives it from Collective().Broadcast.
func (s *Session) Broadcast(data []byte) error { return s.broadcast(false, lockstep, data) }

// BroadcastTag is Broadcast on an explicitly tagged concurrent stream
// (daemons receive with Collective().BroadcastTag under the same tag).
func (s *Session) BroadcastTag(tag uint32, data []byte) error {
	return s.broadcast(false, userTag(tag), data)
}

// MWBroadcast ships data to every middleware daemon over the MW tree
// (received by Middleware.Collective().Broadcast).
func (s *Session) MWBroadcast(data []byte) error { return s.broadcast(true, lockstep, data) }

// MWBroadcastTag is BroadcastTag over the MW fabric.
func (s *Session) MWBroadcastTag(tag uint32, data []byte) error {
	return s.broadcast(true, userTag(tag), data)
}

func (s *Session) broadcast(mw bool, st stream, data []byte) error {
	fab, err := s.fabric(mw)
	if err != nil {
		return err
	}
	tag, err := fab.opTag(st)
	if err != nil {
		return err
	}
	sp := s.obsRec.Start("fe-broadcast", -1)
	defer sp.End()
	return s.sendFrames(fab, coll.RawFrames(coll.OpBroadcast, tag, "", data, s.collChunk))
}

// Scatter delivers parts[rank] to each back-end daemon (one part per
// daemon, in rank order). Daemons receive their part from
// Collective().Scatter; interior tree nodes route each part toward its
// rank's subtree, so no single link ever carries the whole part set.
func (s *Session) Scatter(parts [][]byte) error { return s.scatter(false, lockstep, parts) }

// ScatterTag is Scatter on an explicitly tagged concurrent stream
// (daemons receive with Collective().ScatterTag under the same tag).
func (s *Session) ScatterTag(tag uint32, parts [][]byte) error {
	return s.scatter(false, userTag(tag), parts)
}

// MWScatter delivers parts[rank] to each middleware daemon over the MW
// tree (received by Middleware.Collective().Scatter).
func (s *Session) MWScatter(parts [][]byte) error { return s.scatter(true, lockstep, parts) }

// MWScatterTag is ScatterTag over the MW fabric.
func (s *Session) MWScatterTag(tag uint32, parts [][]byte) error {
	return s.scatter(true, userTag(tag), parts)
}

func (s *Session) scatter(mw bool, st stream, parts [][]byte) error {
	fab, err := s.fabric(mw)
	if err != nil {
		return err
	}
	if len(parts) != len(fab.infos) {
		return fmt.Errorf("core: scatter needs %d parts (one per daemon), got %d", len(fab.infos), len(parts))
	}
	tag, err := fab.opTag(st)
	if err != nil {
		return err
	}
	sp := s.obsRec.Start("fe-scatter", -1)
	defer sp.End()
	entries := make([]coll.Entry, len(parts))
	for rk, p := range parts {
		entries[rk] = coll.Entry{Rank: rk, Blob: p}
	}
	return s.sendFrames(fab, coll.EntryFrames(coll.OpScatter, tag, entries, s.collChunk))
}

// sendFrames ships an FE-originated collective stream to the master.
func (s *Session) sendFrames(fab *feFabric, frames []coll.Frame) error {
	for _, f := range frames {
		if err := sendFrameOn(fab.conn, fab.prof.class, f); err != nil {
			return err
		}
		s.obsCounter("coll.fe.tx.frames").Inc()
		s.obsCounter("coll.fe.tx.bytes").Add(uint64(len(f.Body)))
	}
	return nil
}

// recvCollFrame waits for the next frame of the (op, tag) stream routed
// by the fabric's reader, surfacing a malformed frame's decode error, a
// frame of another operation (collective order diverged) or — if the
// session dies mid-collective — the terminal fault detail.
func (s *Session) recvCollFrame(fab *feFabric, op coll.Op, tag uint32) (coll.Frame, error) {
	ev, ok := fab.dm.next(tag)
	if !ok {
		return coll.Frame{}, s.closedErr()
	}
	if ev.err != nil {
		return coll.Frame{}, fmt.Errorf("core: malformed collective frame from %s master daemon: %w", fab.prof.kind, ev.err)
	}
	s.obsCounter("coll.fe.rx.frames").Inc()
	s.obsCounter("coll.fe.rx.bytes").Add(uint64(len(ev.f.Body)))
	if ev.f.H.Op != op || ev.f.H.Tag != tag {
		return coll.Frame{}, fmt.Errorf("core: %v frame tag %d during %v tag %d (collective order diverged)",
			ev.f.H.Op, ev.f.H.Tag, op, tag)
	}
	return ev.f, nil
}

// Gather collects one byte slice from every back-end daemon
// (Collective().Gather), indexed by rank. Contributions stream to the
// front end as bounded-size chunks routed up the tree, arriving as each
// subtree completes rather than as one monolithic master payload.
func (s *Session) Gather() ([][]byte, error) { return s.gather(false, lockstep) }

// GatherTag is Gather on an explicitly tagged concurrent stream: daemons
// contribute with Collective().GatherTag under the same tag (from
// AllocTag), and any number of tagged collectives may be in flight on the
// session at once, each driven by its own goroutine.
func (s *Session) GatherTag(tag uint32) ([][]byte, error) { return s.gather(false, userTag(tag)) }

// MWGather collects one byte slice from every middleware daemon over the
// MW tree (contributed by Middleware.Collective().Gather).
func (s *Session) MWGather() ([][]byte, error) { return s.gather(true, lockstep) }

// MWGatherTag is GatherTag over the MW fabric.
func (s *Session) MWGatherTag(tag uint32) ([][]byte, error) { return s.gather(true, userTag(tag)) }

func (s *Session) gather(mw bool, st stream) ([][]byte, error) {
	fab, err := s.fabric(mw)
	if err != nil {
		return nil, err
	}
	tag, err := fab.opTag(st)
	if err != nil {
		return nil, err
	}
	sp := s.obsRec.Start("fe-gather", -1)
	defer sp.End()
	var asm coll.RankAssembler
	for {
		f, err := s.recvCollFrame(fab, coll.OpGather, tag)
		if err != nil {
			return nil, err
		}
		if f.End {
			return asm.Finish(f.H, f.Total, len(fab.infos))
		}
		if err := asm.Add(f.H, f.Body); err != nil {
			return nil, err
		}
	}
}

// Reduce receives the tree-combined reduction of every daemon's
// Collective().Reduce contribution. The filter is chosen daemon-side and
// applied at every interior node, so per-link bytes are bounded by the
// combined result — a sum or top-k sample reaches the front end at a
// size independent of the daemon count.
func (s *Session) Reduce() ([]byte, error) { return s.reduce(false, lockstep) }

// ReduceTag is Reduce on an explicitly tagged concurrent stream (daemons
// contribute with Collective().ReduceTag under the same tag).
func (s *Session) ReduceTag(tag uint32) ([]byte, error) { return s.reduce(false, userTag(tag)) }

// MWReduce receives the tree-combined reduction of every middleware
// daemon's Collective().Reduce contribution over the MW tree.
func (s *Session) MWReduce() ([]byte, error) { return s.reduce(true, lockstep) }

// MWReduceTag is ReduceTag over the MW fabric.
func (s *Session) MWReduceTag(tag uint32) ([]byte, error) { return s.reduce(true, userTag(tag)) }

func (s *Session) reduce(mw bool, st stream) ([]byte, error) {
	fab, err := s.fabric(mw)
	if err != nil {
		return nil, err
	}
	tag, err := fab.opTag(st)
	if err != nil {
		return nil, err
	}
	sp := s.obsRec.Start("fe-reduce", -1)
	defer sp.End()
	var asm coll.RawAssembler
	for {
		f, err := s.recvCollFrame(fab, coll.OpReduce, tag)
		if err != nil {
			return nil, err
		}
		// The K-independence invariant of filtered reduction: bytes landing
		// on the FE link are bounded by the combined result, not the fabric.
		s.obsCounter("coll.reduce.fe.rx.bytes").Add(uint64(len(f.Body)))
		if f.End {
			return asm.Finish(f.H, f.Total)
		}
		if err := asm.Add(f.H, f.Body); err != nil {
			return nil, err
		}
	}
}

// DaemonCollective is the daemon-side handle of a fabric's collective
// tool-data plane, mirroring the Session methods: what the FE broadcasts
// or scatters every daemon of the fabric receives here, and what every
// daemon gathers or reduces arrives at the FE; Barrier, AllGather and
// AllReduce run among the daemons alone. Back-end daemons obtain it from
// BackEnd.Collective (paired with Session.Broadcast/...), middleware
// daemons from Middleware.Collective (paired with Session.MWBroadcast/...).
type DaemonCollective = iccl.Plane

// newDaemonCollective wires the plane: at the master, gather/reduce
// frames bridge onto the FE connection as TypeCollChunk/TypeCollEnd
// messages and broadcast/scatter frames are pulled from the master's FE
// demux, which sorts the connection by stream tag so concurrent tagged
// collectives share it. window is the per-(link, tag) credit budget of
// the tree links' flow control (0 = coll.DefaultWindow, negative = off);
// the FE hop itself carries no credits — it has exactly one consumer
// draining into per-tag queues and no fan-in skew.
func newDaemonCollective(d *daemonSession, chunkBytes, window int) *DaemonCollective {
	var up iccl.UpFn
	var down iccl.DownFn
	if d.comm.IsMaster() {
		up = func(f coll.Frame) error { return sendFrameOn(d.fe, d.fab.class, f) }
		down = func(tag uint32) (coll.Frame, error) {
			dm := d.feDemux()
			ev, ok := dm.next(tag)
			if !ok {
				return coll.Frame{}, dm.cause()
			}
			return ev.f, ev.err
		}
	}
	return d.comm.NewPlane(chunkBytes, window, up, down)
}
