package replica

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"gamedb/internal/spatial"
)

// hubTrajectory drives one fixed call sequence through a hub and returns
// a digest per tick of everything a client or an operator can observe:
// the TickReport, every client's cumulative Msgs / Bytes / Snapshots /
// Drops, its tier and backlog, and the staleness histogram's count, sum,
// min and max. The scenario mixes budgets (default, throttled, stuck,
// generous), keeps MaxQueue small so backlogs drop, and each tick moves,
// spawns, despawns and re-spawns entities and retargets some windows.
// Entity ids span one-, two- and three-byte varints so wire-encoded
// sizes differ from message to message.
func hubTrajectory(wireSizing bool) ([]uint64, *Hub) {
	const (
		side    = 640.0
		clients = 300
		ticks   = 40
	)
	h := NewHub(HubConfig{
		Specs:      hubSpecs(),
		Cell:       32,
		ByteBudget: 200,
		DegradeAt:  400,
		UpgradeAt:  120,
		MaxQueue:   700,
		WireSizing: wireSizing,
	})
	rng := rand.New(rand.NewSource(2009))
	budgets := []int{0, 0, 0, 30, 60, 5, 1000}
	conns := make([]*Conn, clients)
	for i := range conns {
		focus := spatial.Vec2{X: rng.Float64() * side, Y: rng.Float64() * side}
		conns[i] = h.AddClient(i, focus, 30+rng.Float64()*60, budgets[rng.Intn(len(budgets))])
	}

	type ent struct {
		id    ID
		pos   spatial.Vec2
		vals  []float64
		alive bool
	}
	var ents []*ent
	nextID := func(i int) ID {
		switch i % 3 {
		case 0:
			return ID(1 + i)
		case 1:
			return ID(200 + i)
		default:
			return ID(1<<15 + i)
		}
	}
	for i := 0; i < 180; i++ {
		ents = append(ents, &ent{
			id:   nextID(i),
			pos:  spatial.Vec2{X: rng.Float64() * side, Y: rng.Float64() * side},
			vals: []float64{100, 0, 0},
		})
	}
	clamp := func(v float64) float64 { return math.Max(0, math.Min(side-1, v)) }

	var out []uint64
	var buf [8]byte
	for tick := int64(1); tick <= ticks; tick++ {
		h.BeginTick(tick)
		for _, e := range ents {
			switch r := rng.Float64(); {
			case !e.alive:
				if tick == 1 || r < 0.05 {
					e.alive = true
					if r < 0.02 {
						h.UpdateEntity(e.id, e.pos, e.vals) // unknown id: spawns
					} else {
						h.SpawnEntity(e.id, e.pos, e.vals)
					}
				}
			case r < 0.03:
				e.alive = false
				h.DespawnEntity(e.id)
			case r < 0.75:
				e.pos.X = clamp(e.pos.X + (rng.Float64()*2-1)*20)
				e.pos.Y = clamp(e.pos.Y + (rng.Float64()*2-1)*20)
				if rng.Float64() < 0.3 {
					e.vals[0] -= float64(1 + rng.Intn(5))
				}
				e.vals[1] = e.pos.X / 4
				e.vals[2] = float64(tick % 3)
				if rng.Float64() < 0.1 {
					h.SpawnEntity(e.id, e.pos, e.vals) // known id: updates
				} else {
					h.UpdateEntity(e.id, e.pos, e.vals)
				}
			}
		}
		for d := 0; d < clients/20; d++ {
			c := conns[rng.Intn(clients)]
			h.MoveClient(c, spatial.Vec2{
				X: clamp(c.Focus.X + (rng.Float64()*2-1)*80),
				Y: clamp(c.Focus.Y + (rng.Float64()*2-1)*80),
			})
		}
		rep := h.FlushTick()

		d := fnv.New64a()
		put := func(v int64) {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			d.Write(buf[:])
		}
		put(rep.Tick)
		put(rep.Msgs)
		put(rep.Bytes)
		put(rep.Snapshots)
		put(rep.Drops)
		for _, n := range rep.Tiers {
			put(int64(n))
		}
		for _, c := range conns {
			put(c.Msgs)
			put(c.Bytes)
			put(c.Snapshots)
			put(c.Drops)
			put(int64(c.CurrentTier()))
			put(int64(c.QueuedBytes()))
		}
		put(h.Staleness.Count())
		put(int64(math.Float64bits(h.Staleness.Sum())))
		put(int64(math.Float64bits(h.Staleness.Min())))
		put(int64(math.Float64bits(h.Staleness.Max())))
		out = append(out, d.Sum64())
	}
	return out, h
}

// foldDigests folds per-tick digests into one value.
func foldDigests(ds []uint64) uint64 {
	d := fnv.New64a()
	var buf [8]byte
	for _, v := range ds {
		binary.LittleEndian.PutUint64(buf[:], v)
		d.Write(buf[:])
	}
	return d.Sum64()
}

// TestHubTrajectoryPinned pins the hub's exact per-client behaviour
// under modeled sizing: which messages ship, drop and wait, when tiers
// move, and every staleness sample. The golden value is the reference
// behaviour, not a snapshot to regenerate: a change to the flush must
// reproduce it bit for bit.
func TestHubTrajectoryPinned(t *testing.T) {
	const want = uint64(0xb41febc3c3b33b5b)
	traj, h := hubTrajectory(false)
	if got := foldDigests(traj); got != want {
		t.Fatalf("hub trajectory digest = %#x, want %#x", got, want)
	}
	// The pin only means something if the scenario reaches every path.
	if h.DropTotal.Load() == 0 || h.DegradeTotal.Load() == 0 || h.UpgradeTotal.Load() == 0 ||
		h.SnapshotTotal.Load() == 0 || h.Staleness.Count() == 0 {
		t.Fatalf("scenario misses a path: drops=%d degrades=%d upgrades=%d snapshots=%d samples=%d",
			h.DropTotal.Load(), h.DegradeTotal.Load(), h.UpgradeTotal.Load(),
			h.SnapshotTotal.Load(), h.Staleness.Count())
	}
}

// TestHubWireSizingDeterministic: under wire sizing, snapshot and
// removal sizes depend on the entity id, so the order a cover diff
// enumerates a cell's population decides which messages fit a budget
// and which drop. That order must be fixed: the same call sequence
// yields the same per-client trajectory every run.
func TestHubWireSizingDeterministic(t *testing.T) {
	first, _ := hubTrajectory(true)
	for run := 1; run < 5; run++ {
		again, _ := hubTrajectory(true)
		for i := range first {
			if again[i] != first[i] {
				t.Fatalf("run %d diverged from run 0 at tick %d", run, i+1)
			}
		}
	}
}

// TestHubFlushAllocsConstant: a warmed-up flush with no cover changes
// costs a small constant number of allocations, however many clients
// it serves and however many messages they queue.
func TestHubFlushAllocsConstant(t *testing.T) {
	allocs := func(clients int) float64 {
		h := NewHub(HubConfig{Specs: hubSpecs(), Cell: 32, ByteBudget: 100})
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < clients; i++ {
			budget := 0
			if i%4 == 0 {
				budget = 20 // throttled: keeps a backlog that drops
			}
			h.AddClient(i, spatial.Vec2{X: rng.Float64() * 640, Y: rng.Float64() * 640}, 64, budget)
		}
		pos := make([]spatial.Vec2, 400)
		for i := range pos {
			pos[i] = spatial.Vec2{X: rng.Float64() * 640, Y: rng.Float64() * 640}
		}
		vals := []float64{0, 0, 0}
		tick := int64(0)
		step := func() {
			tick++
			h.BeginTick(tick)
			for i, p := range pos {
				vals[0], vals[1], vals[2] = float64(tick), float64(tick*2), float64(tick)
				h.UpdateEntity(ID(i+1), p, vals)
			}
			h.FlushTick()
		}
		for i := 0; i < 50; i++ {
			step() // first flush snapshots every window; then queues settle
		}
		return testing.AllocsPerRun(20, func() { h.FlushTick() })
	}
	small, large := allocs(500), allocs(5000)
	if small != large || large > 8 {
		t.Fatalf("steady-state flush allocations: %v at 500 clients, %v at 5000; want equal and small", small, large)
	}
}
