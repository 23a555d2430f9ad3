package experiment

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"gamedb/internal/metrics"
	"gamedb/internal/replica"
	"gamedb/internal/shard"
	"gamedb/internal/spatial"
)

// E19ChangeFeedReplication measures the two consumers of the per-tick
// change feed.
//
// Reconcile rows: the border crowd at 1/2/4 shards under the
// dirty-set-driven incremental ghost refresh (feed candidates plus the
// due-tick index), which prices evaluation at O(dirty + due) instead of
// the full scan's O(band × fields). The border crowd mirrors every read
// field Exactly, so the hash column agrees across shard counts.
//
// Fan-out rows: the same feed pumped into the replica hub and fanned to
// 1k/10k/100k synthetic clients with per-client interest windows, delta
// encoding and tier degradation; bytes/tick and staleness percentiles
// size the outward bandwidth the paper's consistency tiers buy.
func E19ChangeFeedReplication(quick bool) *metrics.Table {
	t := metrics.NewTable("E19 — change-feed replication: incremental ghost refresh + client fan-out",
		"phase", "config", "tick", "reconcile p50", "ships/tick", "bytes/tick", "stale p50/p99", "hash")
	t.Note = "reconcile: reconcile p50 is the median over ticks of the element-wise minimum across repetitions (same seed => identical per-tick workload, so the per-tick min strips scheduler noise on shared hosts); fan-out: bytes/tick grows sublinearly in clients (interest windows)"

	units := pick(quick, 300, 1500)
	side := pick(quick, 400.0, 800.0)
	ticks := pick(quick, 12, 60)
	reps := pick(quick, 1, 5)
	for _, shards := range []int{1, 2, 4} {
		var (
			minNS  []float64 // element-wise min across reps, per tick
			wallNS float64   // fastest rep's wall time for the tick loop
			hash   uint64
			ships  int64
		)
		for rep := 0; rep < reps; rep++ {
			rt, err := shard.New(shard.Config{
				Seed: 42, Shards: shards, World: spatial.NewRect(0, 0, side, side),
				TickDT: 0.5, GhostBand: 20, Workers: 4, ScriptFuel: 1 << 40,
				GhostFields: shard.BorderGhostFields(),
			})
			if err != nil {
				panic(fmt.Sprintf("E19: %v", err))
			}
			if err := shard.SeedBorderCrowd(rt, units, side, 7, 6); err != nil {
				panic(fmt.Sprintf("E19: %v", err))
			}
			recNS := make([]float64, 0, ticks)
			elapsed := timeOp(func() {
				for i := 0; i < ticks; i++ {
					st, err := rt.Step()
					if err != nil {
						panic(fmt.Sprintf("E19: tick %d: %v", i, err))
					}
					recNS = append(recNS, float64(st.ReconcileNS))
				}
			})
			h, s := rt.Hash(), rt.GhostShipTotal.Load()
			rt.Close()
			wall := float64(elapsed.Nanoseconds())
			if rep == 0 {
				minNS, wallNS, hash, ships = recNS, wall, h, s
				continue
			}
			if h != hash || s != ships {
				panic(fmt.Sprintf("E19: %dsh rep %d diverged: hash %016x vs %016x, ships %d vs %d",
					shards, rep, h, hash, s, ships))
			}
			for i, ns := range recNS {
				minNS[i] = math.Min(minNS[i], ns)
			}
			wallNS = math.Min(wallNS, wall)
		}
		sort.Float64s(minNS)
		t.AddRow(
			"reconcile",
			fmt.Sprintf("%dsh", shards),
			metrics.Fdur(wallNS/float64(ticks)),
			metrics.Fdur(minNS[len(minNS)/2]),
			metrics.Fnum(float64(ships)/float64(ticks)),
			"—",
			"—",
			fmt.Sprintf("%016x", hash),
		)
	}

	clientScales := pick(quick, []int{200, 1000}, []int{1000, 10000, 100000})
	fanUnits := pick(quick, 300, 2000)
	fanSide := pick(quick, 400.0, 1000.0)
	fanTicks := pick(quick, 10, 40)
	for _, clients := range clientScales {
		rt, err := shard.New(shard.Config{
			Seed: 42, Shards: 4, World: spatial.NewRect(0, 0, fanSide, fanSide),
			TickDT: 0.5, GhostBand: 20, Workers: 4, ScriptFuel: 1 << 40,
			GhostFields: shard.BorderGhostFields(), ChangeFeed: true,
		})
		if err != nil {
			panic(fmt.Sprintf("E19: %v", err))
		}
		if err := shard.SeedBorderCrowd(rt, fanUnits, fanSide, 7, 6); err != nil {
			panic(fmt.Sprintf("E19: %v", err))
		}
		hub := replica.NewHub(replica.HubConfig{
			Specs: []replica.FieldSpec{
				{Name: "x", Class: replica.Coarse, Epsilon: 0.5, MaxAge: 10},
				{Name: "y", Class: replica.Coarse, Epsilon: 0.5, MaxAge: 10},
				{Name: "hp", Class: replica.Exact},
				{Name: "kb", Class: replica.Cosmetic, Period: 4},
			},
			Cell: 32, ByteBudget: 1500,
		})
		rng := rand.New(rand.NewSource(2009))
		for i := 0; i < clients; i++ {
			budget := 0
			if rng.Float64() < 0.05 {
				budget = 1500 / 8 // throttled tail: induces tier degradation
			}
			hub.AddClient(i, spatial.Vec2{X: rng.Float64() * fanSide, Y: rng.Float64() * fanSide}, 64, budget)
		}
		pump := shard.NewFeedPump(rt, hub)
		pump.Pump()
		hub.FlushTick()
		var bytes int64
		elapsed := timeOp(func() {
			for i := 0; i < fanTicks; i++ {
				if _, err := rt.Step(); err != nil {
					panic(fmt.Sprintf("E19: tick %d: %v", i, err))
				}
				pump.Pump()
				rep := hub.FlushTick()
				bytes += rep.Bytes
			}
		})
		hash := rt.Hash()
		rt.Close()
		label := fmt.Sprintf("%d clients", clients)
		if clients >= 1000 {
			label = fmt.Sprintf("%dk clients", clients/1000)
		}
		t.AddRow(
			"fanout",
			label,
			metrics.Fdur(float64(elapsed.Nanoseconds())/float64(fanTicks)),
			"—",
			"—",
			metrics.Fnum(float64(bytes)/float64(fanTicks)),
			fmt.Sprintf("%.0f/%.0f", hub.Staleness.Quantile(0.50), hub.Staleness.Quantile(0.99)),
			fmt.Sprintf("%016x", hash),
		)
	}
	return t
}
