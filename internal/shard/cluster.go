package shard

import (
	"gamedb/internal/content"
	"gamedb/internal/entity"
	"gamedb/internal/spatial"
	"gamedb/internal/wire"
	"gamedb/internal/world"
)

// Cluster drives a grid of wire-connected Peers inside one process —
// the Runtime's API over the wire transport, so every sim, bench and
// test can price the wire path against the in-process barrier by
// swapping the constructor. Peers run in lockstep: every operation
// fans out to all peers concurrently (barrier rounds block on each
// other's frames, so they must overlap) and joins before returning; no
// goroutines persist between operations.
type Cluster struct {
	peers []*Peer
	errs  []error
}

// NewPipeCluster builds a cfg.Shards-peer cluster over the in-process
// pipe transport (one channel mesh, zero sockets).
func NewPipeCluster(cfg Config) (*Cluster, error) {
	cfg, err := withDefaults(cfg)
	if err != nil {
		return nil, err
	}
	pipes := wire.NewPipeGroup(cfg.Shards)
	trs := make([]wire.Transport, len(pipes))
	for i, p := range pipes {
		trs[i] = p
	}
	return newCluster(cfg, trs)
}

// NewTCPCluster builds a cluster whose peers talk TCP over loopback —
// every barrier frame crosses a real socket, pricing the full network
// path while staying a one-process test subject.
func NewTCPCluster(cfg Config) (*Cluster, error) {
	cfg, err := withDefaults(cfg)
	if err != nil {
		return nil, err
	}
	meshes, err := wire.NewTCPLoopbackGroup(cfg.Shards)
	if err != nil {
		return nil, err
	}
	trs := make([]wire.Transport, len(meshes))
	for i, m := range meshes {
		trs[i] = m
	}
	return newCluster(cfg, trs)
}

func newCluster(cfg Config, trs []wire.Transport) (*Cluster, error) {
	c := &Cluster{peers: make([]*Peer, len(trs)), errs: make([]error, len(trs))}
	for i, tr := range trs {
		p, err := NewPeer(cfg, tr)
		if err != nil {
			for _, t := range trs {
				t.Close()
			}
			return nil, err
		}
		c.peers[i] = p
	}
	return c, nil
}

// Shards returns the grid size.
func (c *Cluster) Shards() int { return len(c.peers) }

// Peer returns peer i, for inspection.
func (c *Cluster) Peer(i int) *Peer { return c.peers[i] }

// each fans fn across all peers concurrently and returns the first
// error by peer index. Barrier rounds inside fn require every peer to
// participate, so the fan-out is mandatory, not an optimization.
func (c *Cluster) each(fn func(p *Peer) error) error {
	done := make(chan struct{})
	for i := range c.peers {
		go func(i int) {
			c.errs[i] = fn(c.peers[i])
			done <- struct{}{}
		}(i)
	}
	for range c.peers {
		<-done
	}
	for _, err := range c.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// LoadPack loads the pack on every peer — each replays the identical
// coordinator spawn stream, materializing only its own rows.
func (c *Cluster) LoadPack(pack *content.Compiled) error {
	for _, p := range c.peers {
		if err := p.LoadPack(pack); err != nil {
			return err
		}
	}
	return nil
}

// Spawn replays one spawn on every peer and returns the allocated id.
func (c *Cluster) Spawn(archetype string, pos spatial.Vec2) (entity.ID, error) {
	var id entity.ID
	for _, p := range c.peers {
		pid, err := p.Spawn(archetype, pos)
		if err != nil {
			return 0, err
		}
		id = pid
	}
	return id, nil
}

// SpawnRaw replays one raw spawn on every peer.
func (c *Cluster) SpawnRaw(table string, vals map[string]entity.Value) (entity.ID, error) {
	var id entity.ID
	for _, p := range c.peers {
		pid, err := p.SpawnRaw(table, vals)
		if err != nil {
			return 0, err
		}
		id = pid
	}
	return id, nil
}

// Set writes a column on whichever peer holds the entity.
func (c *Cluster) Set(id entity.ID, col string, v entity.Value) error {
	for _, p := range c.peers {
		if err := p.Set(id, col, v); err != nil {
			return err
		}
	}
	return nil
}

// Sync runs the lockstep barrier without stepping (initial ghost
// materialization after seeding).
func (c *Cluster) Sync() error {
	return c.each(func(p *Peer) error { return p.Sync() })
}

// Step advances the grid one tick and aggregates the peers' stats into
// one StepStats matching the in-process Runtime's conventions: summed
// tallies (each global count reports on exactly one peer), per-shard
// world stats in shard order, and phase timings from the slowest peer
// — the lockstep grid runs at the pace of its slowest member.
func (c *Cluster) Step() (StepStats, error) {
	sts := make([]StepStats, len(c.peers))
	err := c.each(func(p *Peer) error {
		var e error
		sts[p.Self()], e = p.Step()
		return e
	})
	agg := StepStats{Tick: sts[0].Tick}
	for i := range sts {
		st := &sts[i]
		agg.Entities += st.Entities
		agg.Ghosts += st.Ghosts
		agg.Handoffs += st.Handoffs
		agg.GhostShips += st.GhostShips
		agg.GhostSnapshots += st.GhostSnapshots
		agg.GhostFieldSkips += st.GhostFieldSkips
		agg.EffectsForwarded += st.EffectsForwarded
		agg.EffectsRemoteMerged += st.EffectsRemoteMerged
		agg.RemoteInvalidations += st.RemoteInvalidations
		agg.WireBytesOut += st.WireBytesOut
		agg.WireBytesIn += st.WireBytesIn
		agg.WireFrames += st.WireFrames
		agg.Shards = append(agg.Shards, st.Shards...)
		if st.ParallelNS > agg.ParallelNS {
			agg.ParallelNS = st.ParallelNS
		}
		if st.BarrierNS > agg.BarrierNS {
			agg.BarrierNS = st.BarrierNS
		}
		if st.ReconcileNS > agg.ReconcileNS {
			agg.ReconcileNS = st.ReconcileNS
		}
	}
	return agg, err
}

// Hash gathers every peer's owned rows to peer 0 and returns the
// global digest — bit-identical to Runtime.Hash on the same state.
func (c *Cluster) Hash() (uint64, error) {
	hashes := make([]uint64, len(c.peers))
	err := c.each(func(p *Peer) error {
		var e error
		hashes[p.Self()], e = p.Hash()
		return e
	})
	return hashes[0], err
}

// Entities returns the grid's owned-entity total.
func (c *Cluster) Entities() int {
	n := 0
	for _, p := range c.peers {
		n += p.World().LocalEntities()
	}
	return n
}

// Ghosts returns the grid's mirror total.
func (c *Cluster) Ghosts() int {
	n := 0
	for _, p := range c.peers {
		n += p.World().GhostCount()
	}
	return n
}

// WireStats sums the peers' cumulative transport counters.
func (c *Cluster) WireStats() wire.Stats {
	var s wire.Stats
	for _, p := range c.peers {
		ps := p.WireStats()
		s.BytesOut += ps.BytesOut
		s.BytesIn += ps.BytesIn
		s.FramesOut += ps.FramesOut
		s.FramesIn += ps.FramesIn
	}
	return s
}

// ShardWorld returns peer i's world (Runtime-compatible inspection).
func (c *Cluster) ShardWorld(i int) *world.World { return c.peers[i].World() }

// Close tears the mesh down.
func (c *Cluster) Close() error {
	var first error
	for _, p := range c.peers {
		if err := p.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
