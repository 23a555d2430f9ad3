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
// Flush cost: a client's flush is O(covered cells + events + runs),
// not O(messages). Each cell cuts its field updates into one run list
// per tier as they arrive (runs of equal-size messages), so the tier
// filter runs once per cell, not once per client; client queues hold
// runs too, and drops and drains consume whole runs while giving
// exactly the per-message outcome.
//
// Concurrency contract: BeginTick / Spawn / Update / Despawn /
// MoveClient / AddClient run single-threaded between flushes; FlushTick
// fans per-client work across the worker pool, reading the shared
// per-cell state immutably. Every client's trajectory (what it
// receives, drops and waits on, and when its tier moves) is a
// deterministic function of the call sequence under either sizing:
// per-client streams are independent of the pool's chunking, and a
// cover diff enumerates each cell's population in id order.

import (
	"slices"

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
	// encoded sizes. Which messages ship, wait and drop is as
	// deterministic as under the modeled sizing: cover diffs enumerate
	// cell populations in id order.
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

type eventKind uint8

const (
	evSpawn eventKind = iota
	evDespawn
	evEnter // entity moved into this cell; other = the cell it left
	evLeave // entity moved out of this cell; other = the cell it entered
)

// event is one membership change in a cell's per-tick list, with the
// size of the message it ships (priced once, on the single-threaded
// intake path).
type event struct {
	kind  eventKind
	other spatial.CellKey
	bytes int32
}

// run is n consecutive messages of one size carrying one tick's state.
// Messages are indistinguishable beyond (size, tick), so a run stands
// for them exactly. A cell's tier runs leave tick zero: they hold only
// the current tick's updates.
type run struct {
	bytes int32
	tick  int64
	n     int
}

// cell is one interest cell: its live population in id order, and the
// current tick's traffic — membership events in arrival order and the
// field updates already cut into runs per tier (tiers[t] is what a
// client at tier t receives).
type cell struct {
	ents    []ID
	events  []event
	tiers   [3][]run
	touched bool
}

// Conn is one connected client: a spatial subscription window, a tier,
// and a byte-budgeted FIFO of message runs. Fields are owned by the
// hub; read stats between flushes.
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
	// cells caches the cover's cells. The flush that computes a cover
	// creates any of its cells that do not exist yet, so the cache
	// stays valid until the cover changes.
	cells []*cell

	queue     []run // FIFO from queue[qHead]
	qHead     int
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
	cfg       HubConfig
	specs     []FieldSpec
	tick      int64
	snapBytes int32 // modeled snapshot size

	ents  map[ID]*entState
	cells map[spatial.CellKey]*cell
	// touched lists the cells with traffic since the last BeginTick.
	touched []*cell
	dueAt   map[int64][]ID

	conns   []*Conn
	workers []flushWorker

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

// updateSize prices one field-update message.
func (h *Hub) updateSize(id ID, fi int32, val float64) int32 {
	if !h.cfg.WireSizing {
		return msgBytes
	}
	h.sizeEnc.Reset()
	AppendUpdateMsg(&h.sizeEnc, id, fi, val)
	return int32(h.sizeEnc.Len())
}

// removeSize prices one removal message with the caller's encoder
// scratch (flush workers pass their own; the intake passes h.sizeEnc).
func (h *Hub) removeSize(e *wire.Enc, id ID) int32 {
	if !h.cfg.WireSizing {
		return removeBytes
	}
	e.Reset()
	AppendRemoveMsg(e, id)
	return int32(e.Len())
}

// snapSize prices one full-entity snapshot, as removeSize.
func (h *Hub) snapSize(e *wire.Enc, id ID, vals []float64) int32 {
	if !h.cfg.WireSizing {
		return h.snapBytes
	}
	e.Reset()
	AppendSnapshotMsg(e, id, vals)
	return int32(e.Len())
}

// NewHub builds a hub replicating cfg.Specs.
func NewHub(cfg HubConfig) *Hub {
	cfg.defaults()
	return &Hub{
		cfg:       cfg,
		specs:     cfg.Specs,
		snapBytes: int32(len(cfg.Specs) * snapshotBytesPer),
		ents:      make(map[ID]*entState),
		cells:     make(map[spatial.CellKey]*cell),
		dueAt:     make(map[int64][]ID),
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

// BeginTick opens a tick: the cells touched last tick reset their
// traffic and the due index for this tick re-evaluates (time-driven
// Coarse/Cosmetic ships surface here without any dirty mark, mirroring
// the shard reconcile's due index).
func (h *Hub) BeginTick(tick int64) {
	h.tick = tick
	for _, ct := range h.touched {
		ct.events = ct.events[:0]
		for t := range ct.tiers {
			ct.tiers[t] = ct.tiers[t][:0]
		}
		ct.touched = false
	}
	h.touched = h.touched[:0]
	due := h.dueAt[tick]
	delete(h.dueAt, tick)
	slices.Sort(due)
	for i, id := range due {
		// Every declined field of an entity registers the entity again,
		// so one id can sit here several times. Evaluating it once is
		// enough: a re-evaluation ships nothing (cur == sent after the
		// first ship) and would only register the same dues again,
		// compounding the index from tick to tick.
		if i > 0 && id == due[i-1] {
			continue
		}
		if es, ok := h.ents[id]; ok {
			h.evalFields(id, es)
		}
	}
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
	ct := h.touch(es.cell)
	ct.add(id)
	ct.events = append(ct.events, event{kind: evSpawn, bytes: h.snapSize(&h.sizeEnc, id, es.cur)})
}

// DespawnEntity removes an entity; subscribed clients get a removal.
func (h *Hub) DespawnEntity(id ID) {
	es, ok := h.ents[id]
	if !ok {
		return
	}
	ct := h.touch(es.cell)
	ct.events = append(ct.events, event{kind: evDespawn, bytes: h.removeSize(&h.sizeEnc, id)})
	ct.del(id)
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
	if newCell := spatial.CellAt(pos, h.cfg.Cell); newCell != es.cell {
		from, to := h.touch(es.cell), h.touch(newCell)
		from.events = append(from.events,
			event{kind: evLeave, other: newCell, bytes: h.removeSize(&h.sizeEnc, id)})
		to.events = append(to.events,
			event{kind: evEnter, other: es.cell, bytes: h.snapSize(&h.sizeEnc, id, es.cur)})
		from.del(id)
		to.add(id)
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
	var ct *cell
	for fi, spec := range h.specs {
		cur := es.cur[fi]
		if spec.ShouldShip(cur, es.sent[fi], h.tick, es.sentTick[fi]) {
			es.sent[fi] = cur
			es.sentTick[fi] = h.tick
			if ct == nil {
				ct = h.touch(es.cell)
			}
			h.addUpdate(ct, spec.Class, h.updateSize(id, int32(fi), cur))
			continue
		}
		if cur != es.sent[fi] {
			if due, ok := spec.NextDue(h.tick, es.sentTick[fi]); ok {
				h.dueAt[due] = append(h.dueAt[due], id)
			}
		}
	}
}

// addUpdate appends one shipped field update to the run list of every
// tier that receives its class: Exact reaches all tiers, Coarse skips
// TierCosmetic except every CoarseThinning-th tick, Cosmetic reaches
// only TierExact.
func (h *Hub) addUpdate(ct *cell, class Class, bytes int32) {
	ct.tiers[TierExact] = appendRun(ct.tiers[TierExact], bytes, 0, 1)
	if class == Cosmetic {
		return
	}
	ct.tiers[TierCoarse] = appendRun(ct.tiers[TierCoarse], bytes, 0, 1)
	if class == Coarse && h.tick%h.cfg.CoarseThinning != 0 {
		return
	}
	ct.tiers[TierCosmetic] = appendRun(ct.tiers[TierCosmetic], bytes, 0, 1)
}

// appendRun appends n messages of one size and tick to rs, extending
// the last run when it matches.
func appendRun(rs []run, bytes int32, tick int64, n int) []run {
	if l := len(rs) - 1; l >= 0 && rs[l].bytes == bytes && rs[l].tick == tick {
		rs[l].n += n
		return rs
	}
	return append(rs, run{bytes: bytes, tick: tick, n: n})
}

// cellAt returns cell k, creating it if needed.
func (h *Hub) cellAt(k spatial.CellKey) *cell {
	ct := h.cells[k]
	if ct == nil {
		ct = &cell{}
		h.cells[k] = ct
	}
	return ct
}

// touch returns cell k and lists it for the next BeginTick's reset.
func (h *Hub) touch(k spatial.CellKey) *cell {
	ct := h.cellAt(k)
	if !ct.touched {
		ct.touched = true
		h.touched = append(h.touched, ct)
	}
	return ct
}

// add inserts id into the cell's sorted population.
func (ct *cell) add(id ID) {
	i, _ := slices.BinarySearch(ct.ents, id)
	ct.ents = slices.Insert(ct.ents, i, id)
}

// del removes id from the cell's sorted population.
func (ct *cell) del(id ID) {
	if i, ok := slices.BinarySearch(ct.ents, id); ok {
		ct.ents = slices.Delete(ct.ents, i, i+1)
	}
}

// subscribed reports whether a client window covers cell k — the exact
// predicate CellCover uses, so membership tests agree with the cover.
func subscribed(focus spatial.Vec2, aoi, cell float64, k spatial.CellKey) bool {
	return k.Rect(cell).Dist2(focus) <= aoi*aoi
}

// flushWorker is one flush worker's tally and scratch, kept across
// flushes so a steady-state flush allocates nothing per client.
type flushWorker struct {
	stats   flushStats
	tiers   [3]int
	samples []float64
	enc     wire.Enc // sizing scratch; h.sizeEnc is intake-only
	// missing lists cover slots whose cell does not exist yet; the
	// flush creates them once the workers are done.
	missing []coverSlot
}

// coverSlot is entry i of a client's cover.
type coverSlot struct {
	c *Conn
	i int
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
	if len(h.workers) < workers {
		h.workers = make([]flushWorker, workers)
	}
	ws := h.workers[:workers]
	chunk := (n + workers - 1) / workers
	pool.Par(workers, func(wi int) {
		lo, hi := wi*chunk, min((wi+1)*chunk, n)
		w := &ws[wi]
		w.stats, w.tiers, w.samples, w.missing = flushStats{}, [3]int{}, w.samples[:0], w.missing[:0]
		for _, c := range h.conns[lo:hi] {
			w.stats.add(h.flushConn(c, w))
			w.tiers[c.tier]++
		}
	})
	for wi := range ws {
		w := &ws[wi]
		rep.Msgs += w.stats.msgs
		rep.Bytes += w.stats.bytes
		rep.Snapshots += w.stats.snaps
		rep.Drops += w.stats.drops
		for t := 0; t < 3; t++ {
			rep.Tiers[t] += w.tiers[t]
		}
		h.DegradeTotal.Add(w.stats.degrades)
		h.UpgradeTotal.Add(w.stats.upgrades)
		for _, s := range w.samples {
			h.Staleness.Record(s)
		}
		for _, m := range w.missing {
			m.c.cells[m.i] = h.cellAt(m.c.cover[m.i])
		}
		if cap(w.missing) > 4096 {
			w.missing = nil // a first flush's worth; steady state needs little
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

// enqueue appends n messages of one size, carrying this tick's state,
// to the client's FIFO, then drops the oldest past the backlog cap.
// Dropping after a run leaves the same survivors as dropping after each
// of its messages: either way the queue keeps the longest suffix that
// fits MaxQueue.
func (h *Hub) enqueue(c *Conn, bytes int32, n int, fs *flushStats) {
	if n == 0 {
		return
	}
	if c.qHead < len(c.queue) {
		c.queue = appendRun(c.queue, bytes, h.tick, n)
	} else {
		c.queue = append(c.queue[:0], run{bytes: bytes, tick: h.tick, n: n})
		c.qHead = 0
	}
	c.qBytes += int(bytes) * n
	for c.qBytes > h.cfg.MaxQueue && c.qHead < len(c.queue) {
		r := &c.queue[c.qHead]
		k := r.n
		if r.bytes > 0 {
			k = min(k, ceilDiv(c.qBytes-h.cfg.MaxQueue, int(r.bytes)))
		}
		r.n -= k
		c.qBytes -= k * int(r.bytes)
		fs.drops += int64(k)
		if r.n == 0 {
			c.qHead++
		}
	}
}

// enqueueCell queues one message per member of a cell population — a
// snapshot each (snap) or a removal each — in id order. Under modeled
// sizing every message is the same size, so the population is one run.
func (h *Hub) enqueueCell(c *Conn, ct *cell, snap bool, enc *wire.Enc, fs *flushStats) {
	if ct == nil || len(ct.ents) == 0 {
		return
	}
	if snap {
		fs.snaps += int64(len(ct.ents))
	}
	if !h.cfg.WireSizing {
		b := int32(removeBytes)
		if snap {
			b = h.snapBytes
		}
		h.enqueue(c, b, len(ct.ents), fs)
		return
	}
	// Entities in cells left behind are still alive (still in h.ents):
	// only this client's window moved, nothing despawned.
	for _, id := range ct.ents {
		if snap {
			h.enqueue(c, h.snapSize(enc, id, h.ents[id].cur), 1, fs)
		} else {
			h.enqueue(c, h.removeSize(enc, id), 1, fs)
		}
	}
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// flushConn runs one client's tick: window maintenance (cover diff →
// snapshots and removals), traffic collection from covered cells at
// the client's tier, then a budgeted FIFO drain and the tier
// watermarks.
func (h *Hub) flushConn(c *Conn, w *flushWorker) flushStats {
	var fs flushStats
	cellSize := h.cfg.Cell

	// fresh lists this flush's newly covered cells: their end-of-tick
	// population snapshots wholesale below, so their per-tick event and
	// update lists are already baked in and must not replay.
	var fresh []spatial.CellKey
	if c.coverDirty {
		newCover := spatial.CellCover(c.Focus, c.AOI, cellSize, c.scratch[:0])
		fresh = c.fresh[:0]
		// Merge-walk old vs new cover (both row-major): cells only in
		// the new cover snapshot their population, cells only in the
		// old one queue removals for theirs.
		i, j := 0, 0
		for i < len(c.cover) || j < len(newCover) {
			switch {
			case j == len(newCover) || (i < len(c.cover) && cellLess(c.cover[i], newCover[j])):
				h.enqueueCell(c, h.cells[c.cover[i]], false, &w.enc, &fs)
				i++
			case i == len(c.cover) || cellLess(newCover[j], c.cover[i]):
				h.enqueueCell(c, h.cells[newCover[j]], true, &w.enc, &fs)
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
		c.cells = c.cells[:0]
		for i, k := range c.cover {
			ct := h.cells[k]
			if ct == nil {
				// Created after the parallel phase; empty until then.
				w.missing = append(w.missing, coverSlot{c, i})
			}
			c.cells = append(c.cells, ct)
		}
	}

	fn := 0
	for i, ct := range c.cells {
		if fn < len(fresh) && fresh[fn] == c.cover[i] {
			// Snapshot this flush: events would double-ship spawns and
			// entries the population snapshot already carries, and
			// updates are baked into the snapshot values.
			fn++
			continue
		}
		if ct == nil || !ct.touched {
			continue
		}
		for _, ev := range ct.events {
			switch ev.kind {
			case evSpawn:
				h.enqueue(c, ev.bytes, 1, &fs)
				fs.snaps++
			case evDespawn:
				h.enqueue(c, ev.bytes, 1, &fs)
			case evEnter:
				// Came from a cell this window also covers: already
				// visible, the deltas carry it.
				if !subscribed(c.Focus, c.AOI, cellSize, ev.other) {
					h.enqueue(c, ev.bytes, 1, &fs)
					fs.snaps++
				}
			case evLeave:
				if !subscribed(c.Focus, c.AOI, cellSize, ev.other) {
					h.enqueue(c, ev.bytes, 1, &fs)
				}
			}
		}
		for _, r := range ct.tiers[c.tier] {
			h.enqueue(c, r.bytes, r.n, &fs)
		}
	}

	// Budgeted drain, oldest first: a run yields min(n, ceil(budget /
	// size)) messages, exactly as many as a message-at-a-time drain
	// takes before the budget runs out. Staleness samples every
	// StalenessSample-th delivered message's delay in ticks.
	budget := c.Budget
	if budget <= 0 {
		budget = h.cfg.ByteBudget
	}
	every := h.cfg.StalenessSample
	for budget > 0 && c.qHead < len(c.queue) {
		r := &c.queue[c.qHead]
		k := r.n
		if r.bytes > 0 {
			k = min(k, ceilDiv(budget, int(r.bytes)))
		}
		b := k * int(r.bytes)
		r.n -= k
		c.qBytes -= b
		budget -= b
		fs.msgs += int64(k)
		fs.bytes += int64(b)
		for s := (c.sampleCtr+k)/every - c.sampleCtr/every; s > 0; s-- {
			w.samples = append(w.samples, float64(h.tick-r.tick))
		}
		c.sampleCtr += k
		if r.n == 0 {
			c.qHead++
		}
	}
	// Slide the live runs down once the consumed head outweighs them, so
	// the backing array is reused rather than grown.
	if live := len(c.queue) - c.qHead; live == 0 {
		c.queue, c.qHead = c.queue[:0], 0
		if cap(c.queue) > 1024 {
			c.queue = nil // reclaim a drained backlog's array
		}
	} else if c.qHead >= live {
		c.queue, c.qHead = c.queue[:copy(c.queue, c.queue[c.qHead:])], 0
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
