package replica

// The outward-facing half of change-feed replication: a Hub fans one
// authoritative world's per-tick deltas out to very many clients (the
// 100k-client regime the paper's MMO discussion targets) with the
// bandwidth levers games actually use:
//
//   - Interest management: clients subscribe to spatial cells covering
//     their area of interest; an update is evaluated once globally and
//     then reaches only the clients whose windows cover its cell.
//   - Delta encoding: per (entity, field) ShouldShip gating against the
//     last-shipped baseline, so unchanged or within-epsilon values cost
//     nothing; only cell entries ship full snapshots.
//   - Tier degradation: a client whose queue outgrows its drain budget
//     is stepped down Exact → Coarse → Cosmetic, shedding cosmetic and
//     thinning coarse traffic while persistent-state (Exact) updates
//     always ship — the paper's "uncontested activity may be out of
//     sync" tier, applied per client under backpressure.
//
// The hub is driven from a shard runtime's sealed change feeds (see
// shard.Config.ChangeFeed): the feed's dirty sets name exactly the
// (table, column, id) cells that could need shipping, so per-tick cost
// is O(dirty + due + clients-touched), never O(entities × clients).
//
// Concurrency contract: BeginTick / Spawn / Update / Despawn /
// MoveClient / AddClient run single-threaded between flushes; FlushTick
// fans per-client work across the worker pool, reading the shared
// per-cell lists immutably. Aggregate totals are deterministic for a
// deterministic call sequence: per-client streams are independent, and
// the only unordered work (snapshot batches from cell-set iteration)
// consists of indistinguishable messages (same bytes, same tick), so
// queue drains, drops and staleness samples cannot observe the order.

import (
	"sort"

	"gamedb/internal/metrics"
	"gamedb/internal/sched"
	"gamedb/internal/spatial"
	"gamedb/internal/wire"
)

// Tier is a client's current service level. TierExact receives every
// class; TierCoarse sheds Cosmetic updates; TierCosmetic additionally
// thins Coarse updates to every CoarseThinning-th tick. Exact-class
// updates ship at every tier: degraded clients lose smoothness, never
// persistent state.
type Tier uint8

// The service levels, best first.
const (
	TierExact Tier = iota
	TierCoarse
	TierCosmetic
)

// String names the tier.
func (t Tier) String() string {
	switch t {
	case TierExact:
		return "exact"
	case TierCoarse:
		return "coarse"
	case TierCosmetic:
		return "cosmetic"
	default:
		return "?"
	}
}

// removeBytes is the modeled wire size of an entity-removal message.
const removeBytes = 6

// HubConfig sizes a Hub. Zero values get workable defaults.
type HubConfig struct {
	// Specs are the replicated fields, ShouldShip-gated per class.
	Specs []FieldSpec
	// Cell is the interest-cell edge length (default 64); client
	// windows and entity updates meet at cell granularity.
	Cell float64
	// ByteBudget is a client's default per-tick drain budget in modeled
	// bytes (default 1500, one MTU per tick).
	ByteBudget int
	// DegradeAt / UpgradeAt are the backlog watermarks (in bytes) that
	// step a client's tier down / back up (defaults 4 × ByteBudget and
	// 1 × ByteBudget).
	DegradeAt int
	UpgradeAt int
	// MaxQueue caps a client's backlog in bytes; beyond it the oldest
	// queued messages drop (default 32 × ByteBudget).
	MaxQueue int
	// CoarseThinning: at TierCosmetic, Coarse updates ship only every
	// this many ticks (default 4).
	CoarseThinning int64
	// StalenessSample records 1 in N delivered messages into the
	// staleness histogram (default 16).
	StalenessSample int
	// WireSizing prices every queued message by wire-encoding it with
	// the internal/wire codec (the shard barrier's frame codec) instead
	// of the fixed modeled constants: varint-length ids and real float
	// payloads, so byte budgets and tier watermarks respond to actual
	// encoded sizes. Totals are deterministic (sizes depend only on
	// message content); which specific messages drop past MaxQueue can
	// vary with cell-map iteration order, as in the modeled sizing.
	WireSizing bool
	// Pool runs the per-client flush fan-out (default sched.Shared()).
	Pool *sched.Pool
}

func (c *HubConfig) defaults() {
	if c.Cell <= 0 {
		c.Cell = 64
	}
	if c.ByteBudget <= 0 {
		c.ByteBudget = 1500
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 32 * c.ByteBudget
	}
	if c.DegradeAt <= 0 {
		c.DegradeAt = 4 * c.ByteBudget
	}
	if c.UpgradeAt <= 0 {
		c.UpgradeAt = c.ByteBudget
	}
	if c.CoarseThinning <= 0 {
		c.CoarseThinning = 4
	}
	if c.StalenessSample <= 0 {
		c.StalenessSample = 16
	}
	if c.Pool == nil {
		c.Pool = sched.Shared()
	}
}

// entState is the hub's authoritative view of one replicated entity:
// current values, the globally last-shipped baseline (shared across
// clients — the hub evaluates each (entity, field) once per tick, not
// once per client), and its interest cell.
type entState struct {
	pos      spatial.Vec2
	cell     spatial.CellKey
	cur      []float64
	sent     []float64
	sentTick []int64
}

// update is one shipped field delta, fanned to the cell's subscribers.
// bytes is the wire-encoded size, computed once at creation (on the
// single-threaded intake path) when WireSizing is on; 0 means "use the
// modeled constant".
type update struct {
	id    ID
	fi    int32
	class Class
	bytes int32
}

type eventKind uint8

const (
	evSpawn eventKind = iota
	evDespawn
	evEnter // entity moved into this cell; other = the cell it left
	evLeave // entity moved out of this cell; other = the cell it entered
)

// event is one membership change in a cell's per-tick list. bytes as
// in update: creation-time wire-encoded size, 0 = modeled constant.
type event struct {
	kind  eventKind
	id    ID
	other spatial.CellKey
	bytes int32
}

// cellTick accumulates one cell's current-tick traffic.
type cellTick struct {
	events  []event
	updates []update
}

// qmsg is one queued outbound message: modeled size plus the tick whose
// state it carries (staleness = delivery tick − payload tick).
type qmsg struct {
	bytes int32
	tick  int64
}

// Conn is one connected client: a spatial subscription window, a tier,
// and a byte-budgeted FIFO. Fields are owned by the hub; read stats
// between flushes.
type Conn struct {
	ID    int
	Focus spatial.Vec2
	AOI   float64
	// Budget is this client's per-tick drain in bytes (0 = hub default).
	Budget int

	tier       Tier
	cover      []spatial.CellKey
	coverDirty bool
	scratch    []spatial.CellKey
	fresh      []spatial.CellKey

	queue     []qmsg
	qBytes    int
	sampleCtr int

	// Delivered message/byte/snapshot/drop tallies, cumulative.
	Msgs      int64
	Bytes     int64
	Snapshots int64
	Drops     int64
}

// CurrentTier returns the client's current service level.
func (c *Conn) CurrentTier() Tier { return c.tier }

// QueuedBytes returns the client's current backlog.
func (c *Conn) QueuedBytes() int { return c.qBytes }

// TickReport summarizes one FlushTick.
type TickReport struct {
	Tick      int64
	Msgs      int64
	Bytes     int64
	Snapshots int64
	Drops     int64
	// Tiers counts clients per service level after this flush.
	Tiers [3]int
}

// Hub fans authoritative per-tick deltas out to subscribed clients.
type Hub struct {
	cfg   HubConfig
	specs []FieldSpec
	tick  int64

	ents     map[ID]*entState
	cellEnts map[spatial.CellKey]map[ID]struct{}
	cells    map[spatial.CellKey]*cellTick
	dueAt    map[int64][]ID

	conns []*Conn

	// MsgsTotal / BytesTotal / SnapshotTotal / DropTotal accumulate
	// across the run; Staleness samples delivery delay in ticks;
	// DegradeTotal / UpgradeTotal count tier transitions.
	MsgsTotal     metrics.Counter
	BytesTotal    metrics.Counter
	SnapshotTotal metrics.Counter
	DropTotal     metrics.Counter
	DegradeTotal  metrics.Counter
	UpgradeTotal  metrics.Counter
	Staleness     metrics.Histogram

	// sizeEnc is the intake-path encoder scratch for WireSizing; flush
	// workers use their own (the intake is single-threaded, flush is
	// not).
	sizeEnc wire.Enc
}

// updateSize prices one field-update message at creation time.
func (h *Hub) updateSize(id ID, fi int32, val float64) int32 {
	if !h.cfg.WireSizing {
		return 0
	}
	h.sizeEnc.Reset()
	AppendUpdateMsg(&h.sizeEnc, id, fi, val)
	return int32(h.sizeEnc.Len())
}

// removeSize prices one removal message at creation time.
func (h *Hub) removeSize(id ID) int32 {
	return h.removeSizeInto(&h.sizeEnc, id)
}

// removeSizeInto is removeSize with the caller's encoder scratch, for
// the parallel flush workers.
func (h *Hub) removeSizeInto(e *wire.Enc, id ID) int32 {
	if !h.cfg.WireSizing {
		return 0
	}
	e.Reset()
	AppendRemoveMsg(e, id)
	return int32(e.Len())
}

// snapSizeInto prices one full-entity snapshot with the caller's
// encoder scratch (flush workers pass their own; the intake passes
// h.sizeEnc).
func (h *Hub) snapSizeInto(e *wire.Enc, id ID, vals []float64) int32 {
	if !h.cfg.WireSizing {
		return 0
	}
	e.Reset()
	AppendSnapshotMsg(e, id, vals)
	return int32(e.Len())
}

// NewHub builds a hub replicating cfg.Specs.
func NewHub(cfg HubConfig) *Hub {
	cfg.defaults()
	return &Hub{
		cfg:      cfg,
		specs:    cfg.Specs,
		ents:     make(map[ID]*entState),
		cellEnts: make(map[spatial.CellKey]map[ID]struct{}),
		cells:    make(map[spatial.CellKey]*cellTick),
		dueAt:    make(map[int64][]ID),
	}
}

// Specs returns the replicated field specs.
func (h *Hub) Specs() []FieldSpec { return h.specs }

// Clients returns the connected client count.
func (h *Hub) Clients() int { return len(h.conns) }

// Entities returns the replicated entity count.
func (h *Hub) Entities() int { return len(h.ents) }

// AddClient connects a client. Its whole window snapshots on the first
// flush (the cover diff sees every cell as newly entered).
func (h *Hub) AddClient(id int, focus spatial.Vec2, aoi float64, budget int) *Conn {
	c := &Conn{ID: id, Focus: focus, AOI: aoi, Budget: budget, coverDirty: true}
	h.conns = append(h.conns, c)
	return c
}

// MoveClient retargets a client's window; the cover diff at the next
// flush snapshots newly covered cells and drops departed ones.
func (h *Hub) MoveClient(c *Conn, focus spatial.Vec2) {
	c.Focus = focus
	c.coverDirty = true
}

// BeginTick opens a tick: per-cell lists reset and the due index for
// this tick re-evaluates (time-driven Coarse/Cosmetic ships surface
// here without any dirty mark, mirroring the shard reconcile's due
// index).
func (h *Hub) BeginTick(tick int64) {
	h.tick = tick
	for _, ct := range h.cells {
		ct.events = ct.events[:0]
		ct.updates = ct.updates[:0]
	}
	due := h.dueAt[tick]
	if len(due) == 0 {
		delete(h.dueAt, tick)
		return
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	for i, id := range due {
		// Every declined field of an entity registers the entity again,
		// so one id can sit here several times. Evaluating it once is
		// enough: a re-evaluation ships nothing (cur == sent after the
		// first ship) and would only register the same dues again,
		// compounding the index from tick to tick.
		if i > 0 && id == due[i-1] {
			continue
		}
		es, ok := h.ents[id]
		if !ok {
			continue
		}
		h.evalFields(id, es)
	}
	delete(h.dueAt, tick)
}

// SpawnEntity registers (or re-registers) an entity; subscribed clients
// snapshot it. vals must be len(Specs).
func (h *Hub) SpawnEntity(id ID, pos spatial.Vec2, vals []float64) {
	if _, ok := h.ents[id]; ok {
		h.UpdateEntity(id, pos, vals)
		return
	}
	es := &entState{
		pos:      pos,
		cell:     spatial.CellAt(pos, h.cfg.Cell),
		cur:      append([]float64(nil), vals...),
		sent:     append([]float64(nil), vals...),
		sentTick: make([]int64, len(vals)),
	}
	for i := range es.sentTick {
		es.sentTick[i] = h.tick
	}
	h.ents[id] = es
	h.cellAdd(es.cell, id)
	h.cellFor(es.cell).events = append(h.cellFor(es.cell).events,
		event{kind: evSpawn, id: id, bytes: h.snapSizeInto(&h.sizeEnc, id, es.cur)})
}

// DespawnEntity removes an entity; subscribed clients get a removal.
func (h *Hub) DespawnEntity(id ID) {
	es, ok := h.ents[id]
	if !ok {
		return
	}
	h.cellFor(es.cell).events = append(h.cellFor(es.cell).events,
		event{kind: evDespawn, id: id, bytes: h.removeSize(id)})
	h.cellDel(es.cell, id)
	delete(h.ents, id)
}

// UpdateEntity feeds one dirtied entity's current position and values:
// cell transitions become enter/leave events, and each field evaluates
// ShouldShip once against the global baseline (unknown ids spawn).
func (h *Hub) UpdateEntity(id ID, pos spatial.Vec2, vals []float64) {
	es, ok := h.ents[id]
	if !ok {
		h.SpawnEntity(id, pos, vals)
		return
	}
	newCell := spatial.CellAt(pos, h.cfg.Cell)
	if newCell != es.cell {
		h.cellFor(es.cell).events = append(h.cellFor(es.cell).events,
			event{kind: evLeave, id: id, other: newCell, bytes: h.removeSize(id)})
		h.cellFor(newCell).events = append(h.cellFor(newCell).events,
			event{kind: evEnter, id: id, other: es.cell, bytes: h.snapSizeInto(&h.sizeEnc, id, es.cur)})
		h.cellDel(es.cell, id)
		h.cellAdd(newCell, id)
		es.cell = newCell
	}
	es.pos = pos
	copy(es.cur, vals)
	h.evalFields(id, es)
}

// evalFields runs the delta gate for every field of one entity,
// emitting ships into the entity's cell and registering dues for
// declined-but-diverged values.
func (h *Hub) evalFields(id ID, es *entState) {
	ct := h.cellFor(es.cell)
	for fi, spec := range h.specs {
		cur := es.cur[fi]
		if spec.ShouldShip(cur, es.sent[fi], h.tick, es.sentTick[fi]) {
			es.sent[fi] = cur
			es.sentTick[fi] = h.tick
			ct.updates = append(ct.updates,
				update{id: id, fi: int32(fi), class: spec.Class, bytes: h.updateSize(id, int32(fi), cur)})
			continue
		}
		if cur != es.sent[fi] {
			if due, ok := spec.NextDue(h.tick, es.sentTick[fi]); ok {
				h.dueAt[due] = append(h.dueAt[due], id)
			}
		}
	}
}

func (h *Hub) cellFor(k spatial.CellKey) *cellTick {
	ct := h.cells[k]
	if ct == nil {
		ct = &cellTick{}
		h.cells[k] = ct
	}
	return ct
}

func (h *Hub) cellAdd(k spatial.CellKey, id ID) {
	s := h.cellEnts[k]
	if s == nil {
		s = make(map[ID]struct{})
		h.cellEnts[k] = s
	}
	s[id] = struct{}{}
}

func (h *Hub) cellDel(k spatial.CellKey, id ID) {
	if s := h.cellEnts[k]; s != nil {
		delete(s, id)
	}
}

// subscribed reports whether a client window covers cell k — the exact
// predicate CellCover uses, so membership tests agree with the cover.
func subscribed(focus spatial.Vec2, aoi, cell float64, k spatial.CellKey) bool {
	return k.Rect(cell).Dist2(focus) <= aoi*aoi
}

// FlushTick fans the tick's accumulated traffic to every client (over
// the worker pool), drains each queue by its byte budget, applies the
// tier watermarks, and reports totals.
func (h *Hub) FlushTick() TickReport {
	rep := TickReport{Tick: h.tick}
	n := len(h.conns)
	if n == 0 {
		return rep
	}
	pool := h.cfg.Pool
	workers := pool.Size() + 1
	if workers > n {
		workers = n
	}
	type tally struct {
		stats   flushStats
		tiers   [3]int
		samples []float64
	}
	tallies := make([]tally, workers)
	chunk := (n + workers - 1) / workers
	pool.Par(workers, func(wi int) {
		lo, hi := wi*chunk, (wi+1)*chunk
		if hi > n {
			hi = n
		}
		tl := &tallies[wi]
		var enc wire.Enc // per-worker sizing scratch; h.sizeEnc is intake-only
		for _, c := range h.conns[lo:hi] {
			fs := h.flushConn(c, &tl.samples, &enc)
			tl.stats.add(fs)
			tl.tiers[c.tier]++
		}
	})
	for wi := range tallies {
		tl := &tallies[wi]
		rep.Msgs += tl.stats.msgs
		rep.Bytes += tl.stats.bytes
		rep.Snapshots += tl.stats.snaps
		rep.Drops += tl.stats.drops
		for t := 0; t < 3; t++ {
			rep.Tiers[t] += tl.tiers[t]
		}
		h.DegradeTotal.Add(tl.stats.degrades)
		h.UpgradeTotal.Add(tl.stats.upgrades)
		for _, s := range tl.samples {
			h.Staleness.Record(s)
		}
	}
	h.MsgsTotal.Add(rep.Msgs)
	h.BytesTotal.Add(rep.Bytes)
	h.SnapshotTotal.Add(rep.Snapshots)
	h.DropTotal.Add(rep.Drops)
	return rep
}

// flushStats is one client's this-flush tally.
type flushStats struct {
	msgs, bytes, snaps, drops int64
	degrades, upgrades        int64
}

func (a *flushStats) add(b flushStats) {
	a.msgs += b.msgs
	a.bytes += b.bytes
	a.snaps += b.snaps
	a.drops += b.drops
	a.degrades += b.degrades
	a.upgrades += b.upgrades
}

// cellLess orders cell keys row-major, matching CellCover's generation
// order so cover diffs are a merge walk.
func cellLess(a, b spatial.CellKey) bool {
	if a.Y != b.Y {
		return a.Y < b.Y
	}
	return a.X < b.X
}

// enqueue appends one modeled message to the client's FIFO, dropping
// oldest messages past the backlog cap.
func (h *Hub) enqueue(c *Conn, bytes int32, fs *flushStats) {
	c.queue = append(c.queue, qmsg{bytes: bytes, tick: h.tick})
	c.qBytes += int(bytes)
	for c.qBytes > h.cfg.MaxQueue && len(c.queue) > 0 {
		c.qBytes -= int(c.queue[0].bytes)
		c.queue = c.queue[1:]
		fs.drops++
	}
}

// flushConn runs one client's tick: window maintenance (cover diff →
// snapshots and removals), traffic collection from covered cells under
// the tier filter, then a budgeted FIFO drain and the tier watermarks.
func (h *Hub) flushConn(c *Conn, samples *[]float64, enc *wire.Enc) flushStats {
	var fs flushStats
	cell := h.cfg.Cell
	snapBytes := int32(len(h.specs) * snapshotBytesPer)
	// Cover-diff messages are sized here rather than at creation: the
	// window move invents them, no intake event carries their bytes.
	// Entities in cells left behind are still alive (still in h.ents) —
	// only this client's window moved, nothing despawned.
	snapSize := func(id ID) int32 {
		if b := h.snapSizeInto(enc, id, h.ents[id].cur); b != 0 {
			return b
		}
		return snapBytes
	}
	remSize := func(id ID) int32 {
		if b := h.removeSizeInto(enc, id); b != 0 {
			return b
		}
		return removeBytes
	}

	// fresh lists this flush's newly covered cells: their end-of-tick
	// population snapshots wholesale below, so their per-tick event and
	// update lists are already baked in and must not replay.
	var fresh []spatial.CellKey
	if c.coverDirty {
		newCover := spatial.CellCover(c.Focus, c.AOI, cell, c.scratch[:0])
		fresh = c.fresh[:0]
		// Merge-walk old vs new cover (both row-major): cells only in
		// the new cover snapshot their population, cells only in the
		// old one queue removals for theirs.
		i, j := 0, 0
		for i < len(c.cover) || j < len(newCover) {
			switch {
			case j == len(newCover) || (i < len(c.cover) && cellLess(c.cover[i], newCover[j])):
				for id := range h.cellEnts[c.cover[i]] {
					h.enqueue(c, remSize(id), &fs)
				}
				i++
			case i == len(c.cover) || cellLess(newCover[j], c.cover[i]):
				for id := range h.cellEnts[newCover[j]] {
					h.enqueue(c, snapSize(id), &fs)
					fs.snaps++
				}
				fresh = append(fresh, newCover[j])
				j++
			default:
				i++
				j++
			}
		}
		c.scratch = c.cover
		c.cover = newCover
		c.fresh = fresh
		c.coverDirty = false
	}

	fn := 0
	for _, k := range c.cover {
		if fn < len(fresh) && fresh[fn] == k {
			// Snapshot this flush: events would double-ship spawns and
			// entries the population snapshot already carries, and
			// updates are baked into the snapshot values.
			fn++
			continue
		}
		ct := h.cells[k]
		if ct == nil {
			continue
		}
		for _, ev := range ct.events {
			// An event sized at creation carries its bytes; zero means
			// modeled sizing was in force when it was queued.
			b := ev.bytes
			switch ev.kind {
			case evSpawn:
				if b == 0 {
					b = snapBytes
				}
				h.enqueue(c, b, &fs)
				fs.snaps++
			case evDespawn:
				if b == 0 {
					b = removeBytes
				}
				h.enqueue(c, b, &fs)
			case evEnter:
				// Came from a cell this window also covers: already
				// visible, the deltas carry it.
				if !subscribed(c.Focus, c.AOI, cell, ev.other) {
					if b == 0 {
						b = snapBytes
					}
					h.enqueue(c, b, &fs)
					fs.snaps++
				}
			case evLeave:
				if !subscribed(c.Focus, c.AOI, cell, ev.other) {
					if b == 0 {
						b = removeBytes
					}
					h.enqueue(c, b, &fs)
				}
			}
		}
		for _, u := range ct.updates {
			switch u.class {
			case Cosmetic:
				if c.tier != TierExact {
					continue
				}
			case Coarse:
				if c.tier == TierCosmetic && h.tick%h.cfg.CoarseThinning != 0 {
					continue
				}
			}
			if u.bytes != 0 {
				h.enqueue(c, u.bytes, &fs)
			} else {
				h.enqueue(c, msgBytes, &fs)
			}
		}
	}

	// Budgeted drain, oldest first; staleness samples the delivery
	// delay in ticks.
	budget := c.Budget
	if budget <= 0 {
		budget = h.cfg.ByteBudget
	}
	for len(c.queue) > 0 && budget > 0 {
		m := c.queue[0]
		c.queue = c.queue[1:]
		c.qBytes -= int(m.bytes)
		budget -= int(m.bytes)
		fs.msgs++
		fs.bytes += int64(m.bytes)
		c.sampleCtr++
		if c.sampleCtr%h.cfg.StalenessSample == 0 {
			*samples = append(*samples, float64(h.tick-m.tick))
		}
	}
	if len(c.queue) == 0 && cap(c.queue) > 1024 {
		c.queue = nil // reclaim a drained backlog's slid backing array
	}

	if c.qBytes > h.cfg.DegradeAt && c.tier < TierCosmetic {
		c.tier++
		fs.degrades++
	} else if c.qBytes < h.cfg.UpgradeAt && c.tier > TierExact {
		c.tier--
		fs.upgrades++
	}

	c.Msgs += fs.msgs
	c.Bytes += fs.bytes
	c.Snapshots += fs.snaps
	c.Drops += fs.drops
	return fs
}
