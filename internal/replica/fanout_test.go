package replica

import (
	"fmt"
	"testing"

	"gamedb/internal/spatial"
)

// hubSpecs: one of each class, epsilon/period values chosen so tests
// can steer each gate independently.
func hubSpecs() []FieldSpec {
	return []FieldSpec{
		{Name: "hp", Class: Exact},
		{Name: "x", Class: Coarse, Epsilon: 1.0, MaxAge: 5},
		{Name: "anim", Class: Cosmetic, Period: 2},
	}
}

func newTestHub(budget int) *Hub {
	return NewHub(HubConfig{Specs: hubSpecs(), Cell: 32, ByteBudget: budget})
}

func flush(h *Hub, tick int64, fn func()) TickReport {
	h.BeginTick(tick)
	if fn != nil {
		fn()
	}
	return h.FlushTick()
}

// TestHubSnapshotOnEnter: a client whose window covers a cell snapshots
// its population on the first flush; a client elsewhere receives nothing.
func TestHubSnapshotOnEnter(t *testing.T) {
	h := newTestHub(0)
	near := h.AddClient(1, spatial.Vec2{X: 100, Y: 100}, 50, 0)
	far := h.AddClient(2, spatial.Vec2{X: 5000, Y: 5000}, 50, 0)
	flush(h, 1, func() {
		h.SpawnEntity(10, spatial.Vec2{X: 110, Y: 100}, []float64{100, 110, 0})
	})
	if near.Snapshots != 1 {
		t.Fatalf("near client snapshots = %d, want 1", near.Snapshots)
	}
	if far.Snapshots != 0 || far.Bytes != 0 {
		t.Fatalf("far client received traffic: snaps=%d bytes=%d", far.Snapshots, far.Bytes)
	}
}

// TestHubDeltaGating: unchanged fields cost nothing; an Exact change is
// one message; a within-epsilon Coarse change ships nothing now but
// becomes due at the staleness deadline.
func TestHubDeltaGating(t *testing.T) {
	h := newTestHub(0)
	c := h.AddClient(1, spatial.Vec2{X: 100, Y: 100}, 50, 0)
	pos := spatial.Vec2{X: 110, Y: 100}
	flush(h, 1, func() { h.SpawnEntity(10, pos, []float64{100, 110, 0}) })
	base := c.Msgs

	// No-op update: nothing ships.
	flush(h, 2, func() { h.UpdateEntity(10, pos, []float64{100, 110, 0}) })
	if c.Msgs != base {
		t.Fatalf("no-op update shipped %d messages", c.Msgs-base)
	}

	// Exact change ships exactly one field update (odd tick keeps the
	// Period-2 Cosmetic gate closed even if anim were dirty).
	flush(h, 3, func() { h.UpdateEntity(10, pos, []float64{99, 110, 0}) })
	if got := c.Msgs - base; got != 1 {
		t.Fatalf("Exact change shipped %d messages, want 1", got)
	}
	base = c.Msgs

	// Coarse within epsilon: declined now...
	flush(h, 4, func() { h.UpdateEntity(10, pos, []float64{99, 110.5, 0}) })
	if c.Msgs != base {
		t.Fatalf("within-epsilon Coarse shipped %d messages", c.Msgs-base)
	}
	// ...but the due index surfaces it at sentTick + MaxAge with no
	// further writes (sentTick=1 from the spawn baseline, MaxAge=5 → 6).
	flush(h, 5, nil)
	if c.Msgs != base {
		t.Fatal("Coarse shipped before its staleness deadline")
	}
	flush(h, 6, nil)
	if got := c.Msgs - base; got != 1 {
		t.Fatalf("staleness deadline shipped %d messages, want 1", got)
	}
}

// TestHubTierDegradationAndRecovery: a throttled client's backlog
// crosses the degrade watermark and steps down; once the backlog
// drains, it steps back up. Exact traffic survives at every tier,
// Cosmetic does not.
func TestHubTierDegradationAndRecovery(t *testing.T) {
	h := NewHub(HubConfig{Specs: hubSpecs(), Cell: 32, ByteBudget: 1000, DegradeAt: 60, UpgradeAt: 20, MaxQueue: 100000})
	slow := h.AddClient(1, spatial.Vec2{X: 100, Y: 100}, 50, 10) // 10 bytes/tick drain
	pos := spatial.Vec2{X: 110, Y: 100}
	flush(h, 1, func() {
		for id := ID(10); id < 20; id++ {
			h.SpawnEntity(id, pos, []float64{1, 1, 1})
		}
	})
	// Flood Exact changes until the backlog forces degradation.
	tick := int64(2)
	for ; tick < 40 && slow.CurrentTier() == TierExact; tick++ {
		v := float64(tick)
		flush(h, tick, func() {
			for id := ID(10); id < 20; id++ {
				h.UpdateEntity(id, pos, []float64{v, 1, 1})
			}
		})
	}
	if slow.CurrentTier() == TierExact {
		t.Fatal("backlogged client never degraded")
	}
	if h.DegradeTotal.Load() == 0 {
		t.Fatal("DegradeTotal not counted")
	}
	// Quiet ticks: the queue drains and the tier recovers.
	for i := 0; i < 2000 && slow.CurrentTier() != TierExact; i++ {
		flush(h, tick, nil)
		tick++
	}
	if slow.CurrentTier() != TierExact {
		t.Fatalf("client never recovered: tier=%v backlog=%d", slow.CurrentTier(), slow.QueuedBytes())
	}
	if h.UpgradeTotal.Load() == 0 {
		t.Fatal("UpgradeTotal not counted")
	}
}

// TestHubTierFiltersCosmetic: at TierCoarse a client stops receiving
// Cosmetic updates while a healthy client still does; Exact updates
// reach both.
func TestHubTierFiltersCosmetic(t *testing.T) {
	h := newTestHub(1000)
	fast := h.AddClient(1, spatial.Vec2{X: 100, Y: 100}, 50, 0)
	slow := h.AddClient(2, spatial.Vec2{X: 100, Y: 100}, 50, 0)
	pos := spatial.Vec2{X: 110, Y: 100}
	flush(h, 1, func() { h.SpawnEntity(10, pos, []float64{1, 1, 1}) })
	fm, sm := fast.Msgs, slow.Msgs
	// Tick 4: even tick opens the Period-2 Cosmetic gate; anim changed.
	// The tier is re-pinned inside each flush because a drained queue
	// upgrades it back at flush end (recovery dynamics tested above).
	flush(h, 4, func() {
		slow.tier = TierCoarse
		h.UpdateEntity(10, pos, []float64{1, 1, 9})
	})
	if got := fast.Msgs - fm; got != 1 {
		t.Fatalf("healthy client got %d cosmetic messages, want 1", got)
	}
	if slow.Msgs != sm {
		t.Fatalf("degraded client got %d cosmetic messages, want 0", slow.Msgs-sm)
	}
	// Exact still reaches both.
	flush(h, 5, func() {
		slow.tier = TierCoarse
		h.UpdateEntity(10, pos, []float64{2, 1, 9})
	})
	if fast.Msgs-fm != 2 || slow.Msgs-sm != 1 {
		t.Fatalf("Exact update filtered: fast +%d slow +%d", fast.Msgs-fm, slow.Msgs-sm)
	}
}

// TestHubOverflowDrops: a backlog past MaxQueue sheds its oldest
// messages and counts them.
func TestHubOverflowDrops(t *testing.T) {
	h := NewHub(HubConfig{Specs: hubSpecs(), Cell: 32, ByteBudget: 1000, MaxQueue: 50})
	stuck := h.AddClient(1, spatial.Vec2{X: 100, Y: 100}, 50, 1) // ~no drain
	pos := spatial.Vec2{X: 110, Y: 100}
	flush(h, 1, func() {
		for id := ID(10); id < 30; id++ {
			h.SpawnEntity(id, pos, []float64{1, 1, 1})
		}
	})
	if stuck.Drops == 0 {
		t.Fatal("overflowing queue dropped nothing")
	}
	if stuck.QueuedBytes() > 50 {
		t.Fatalf("backlog %d exceeds MaxQueue 50", stuck.QueuedBytes())
	}
}

// TestHubClientMoveCoverDiff: moving a client's focus snapshots the
// newly covered population and removes the departed one — and only the
// difference, not the whole window.
func TestHubClientMoveCoverDiff(t *testing.T) {
	h := newTestHub(0)
	c := h.AddClient(1, spatial.Vec2{X: 100, Y: 100}, 40, 0)
	flush(h, 1, func() {
		h.SpawnEntity(10, spatial.Vec2{X: 100, Y: 100}, []float64{1, 1, 1}) // old window
		h.SpawnEntity(11, spatial.Vec2{X: 400, Y: 100}, []float64{1, 1, 1}) // new window
	})
	if c.Snapshots != 1 {
		t.Fatalf("initial snapshots = %d, want 1", c.Snapshots)
	}
	flush(h, 2, func() { h.MoveClient(c, spatial.Vec2{X: 400, Y: 100}) })
	if c.Snapshots != 2 {
		t.Fatalf("post-move snapshots = %d, want 2 (entity 11 entered)", c.Snapshots)
	}
	// The old entity's subsequent updates no longer reach the client.
	base := c.Msgs
	flush(h, 3, func() {
		h.UpdateEntity(10, spatial.Vec2{X: 100, Y: 100}, []float64{2, 1, 1})
	})
	if c.Msgs != base {
		t.Fatal("client still receives updates from the departed window")
	}
}

// TestHubEntityCellTransition: an entity crossing into a client's
// window snapshots; one crossing out removes; movement between two
// covered cells is just deltas (no re-snapshot).
func TestHubEntityCellTransition(t *testing.T) {
	h := newTestHub(0)
	c := h.AddClient(1, spatial.Vec2{X: 100, Y: 100}, 40, 0)
	farPos := spatial.Vec2{X: 900, Y: 900}
	flush(h, 1, func() { h.SpawnEntity(10, farPos, []float64{1, 1, 1}) })
	if c.Snapshots != 0 {
		t.Fatal("snapshot for an entity outside the window")
	}
	// Entity walks into the window: snapshot.
	flush(h, 2, func() { h.UpdateEntity(10, spatial.Vec2{X: 110, Y: 100}, []float64{1, 1, 1}) })
	if c.Snapshots != 1 {
		t.Fatalf("enter snapshots = %d, want 1", c.Snapshots)
	}
	snaps := c.Snapshots
	// Moves within the window (cell 32: 110→80 crosses a cell edge but
	// both cells are covered): deltas only, no new snapshot.
	flush(h, 3, func() { h.UpdateEntity(10, spatial.Vec2{X: 80, Y: 100}, []float64{1, 1, 1}) })
	if c.Snapshots != snaps {
		t.Fatal("covered-to-covered cell move re-snapshotted")
	}
	// Entity leaves: removal message (bytes move, snapshots do not).
	bytes := c.Bytes
	flush(h, 4, func() { h.UpdateEntity(10, farPos, []float64{1, 1, 1}) })
	if c.Snapshots != snaps {
		t.Fatal("leave counted as a snapshot")
	}
	if c.Bytes == bytes {
		t.Fatal("leave shipped no removal")
	}
	// Despawn of an out-of-window entity ships nothing.
	bytes = c.Bytes
	flush(h, 5, func() { h.DespawnEntity(10) })
	if c.Bytes != bytes {
		t.Fatal("out-of-window despawn shipped traffic")
	}
}

// TestHubFlushDeterministicAcrossWorkers: per-tick totals are
// independent of the worker pool's chunking — rerunning the same call
// sequence against many clients must reproduce byte-identical totals.
func TestHubFlushDeterministicAcrossWorkers(t *testing.T) {
	run := func() (int64, int64, int64, int64) {
		h := newTestHub(40) // tight budget: queues carry across ticks
		for i := 0; i < 64; i++ {
			h.AddClient(i, spatial.Vec2{X: float64(i * 13 % 300), Y: float64(i * 29 % 300)}, 48, 0)
		}
		for tick := int64(1); tick <= 12; tick++ {
			h.BeginTick(tick)
			for id := ID(1); id <= 40; id++ {
				x := float64((int64(id)*17 + tick*31) % 300)
				y := float64((int64(id)*23 + tick*7) % 300)
				h.UpdateEntity(id, spatial.Vec2{X: x, Y: y}, []float64{float64(tick), x, y})
			}
			h.FlushTick()
		}
		return h.MsgsTotal.Load(), h.BytesTotal.Load(), h.SnapshotTotal.Load(), h.DropTotal.Load()
	}
	m1, b1, s1, d1 := run()
	m2, b2, s2, d2 := run()
	if m1 != m2 || b1 != b2 || s1 != s2 || d1 != d2 {
		t.Fatalf("totals not reproducible: (%d %d %d %d) vs (%d %d %d %d)",
			m1, b1, s1, d1, m2, b2, s2, d2)
	}
	if m1 == 0 || b1 == 0 {
		t.Fatal("scenario shipped nothing")
	}
}

// TestHubDueIndexStaysBounded: an entity whose Coarse fields all diverge
// below epsilon at once registers one due per field. Every due
// evaluation re-registers the fields still pending, so without
// collapsing repeated ids each field doubled its predecessor's entries
// (2^(fields-1) for the last one) and the due index grew with every
// divergence. Bounded, a tick's due list never holds more than one
// entry per (entity, field), and each field still ships exactly on its
// deadline.
func TestHubDueIndexStaysBounded(t *testing.T) {
	ages := []int64{2, 3, 5, 8, 13}
	specs := make([]FieldSpec, len(ages))
	for i, a := range ages {
		specs[i] = FieldSpec{Name: fmt.Sprintf("f%d", i), Class: Coarse, Epsilon: 1, MaxAge: a}
	}
	h := NewHub(HubConfig{Specs: specs, Cell: 32})
	c := h.AddClient(1, spatial.Vec2{X: 100, Y: 100}, 200, 0)
	const entities = 16
	vals := make([]float64, len(specs))
	flush(h, 1, func() {
		for i := 0; i < entities; i++ {
			h.SpawnEntity(ID(i+1), spatial.Vec2{X: 100 + float64(i), Y: 100}, vals)
		}
	})
	base := c.Msgs
	const period = 16 // > 1 + the largest MaxAge: cycles never overlap
	cycles := int64(0)
	for tick := int64(2); tick <= 1+8*period; tick++ {
		phase := (tick - 2) % period
		flush(h, tick, func() {
			if phase > 1 {
				return
			}
			// Phase 0 jumps every field past epsilon (ships now); phase 1
			// nudges it back under epsilon (declined, due at +MaxAge).
			for fi := range vals {
				vals[fi] = float64(10*(tick-phase)) + 0.1*float64(phase)
			}
			if phase == 0 {
				cycles++
			}
			for i := 0; i < entities; i++ {
				h.UpdateEntity(ID(i+1), spatial.Vec2{X: 100 + float64(i), Y: 100}, vals)
			}
		})
		for due, ids := range h.dueAt {
			if len(ids) > entities*len(specs) {
				t.Fatalf("tick %d: due list for tick %d holds %d entries, want <= %d",
					tick, due, len(ids), entities*len(specs))
			}
		}
	}
	// Per cycle each (entity, field) ships twice: the jump and the due.
	if got, want := c.Msgs-base, 2*cycles*entities*int64(len(specs)); got != want {
		t.Fatalf("shipped %d field updates over %d cycles, want %d", got, cycles, want)
	}
}
