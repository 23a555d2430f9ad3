package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"gamedb/internal/content"
	"gamedb/internal/entity"
	"gamedb/internal/obs"
	"gamedb/internal/replica"
	"gamedb/internal/shard"
	"gamedb/internal/spatial"
	"gamedb/internal/world"
)

// server is one set-up workload: a tick loop the benchmark drives
// back to back (a closed loop), plus the state digest the hash check
// compares.
type server interface {
	// tick runs one server tick and fills rec's per-layer fields (the
	// caller times the call for rec.wallNS).
	tick(rec *tickRec) error
	hash() (uint64, error)
	close()
}

// setupTimes splits one set-up into the phases setup_s adds up.
// compileNS is the workload's pack compile timed on its own; where a
// seeder compiles the pack itself it is a probe, not part of totalNS.
type setupTimes struct {
	compileNS, seedNS, meshNS, clientsNS, totalNS int64
}

// workload names one fixed benchmark scenario: how to set it up, how
// many ticks one episode runs, and the single-shard, single-worker,
// in-process reference whose checkpoint hashes it must equal.
type workload struct {
	name  string
	ticks int
	// episodeSeconds is the nominal length of one episode (set-up plus
	// ticks) on a 2-core host; a run's budget divided by it fixes the
	// run's episode count.
	episodeSeconds float64
	// knownDefect, when set, names an open correctness defect the
	// reference check is expected to show on this workload; the run
	// reports the divergence instead of failing on it.
	knownDefect string
	setup       func(seed int64, tr *obs.Tracer) (server, setupTimes, error)
	reference   func(seed int64, ticks int, want []uint64) ([]uint64, error)
}

var workloads = []workload{
	{
		name:           "border-tcp",
		ticks:          450,
		episodeSeconds: 5,
		knownDefect:    "the border crowd diverges between 1 and 2 shards (ticks 376–400 on seed 2009, earlier on some seeds); ROADMAP, first open item",
		setup:          setupBorder,
		reference:      referenceBorder,
	},
	{
		name:           "cascade-fanout",
		ticks:          64,
		episodeSeconds: 7,
		setup:          setupCascade,
		reference:      referenceCascade,
	},
	{
		name:           "conflict-occ",
		ticks:          100,
		episodeSeconds: 2.5,
		setup:          setupConflict,
		reference:      referenceConflict,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// --- border-tcp: cross-shard writes over the wire barrier -----------

const (
	borderUnits = 4000
	borderSide  = 2000.0
	borderSpeed = 6.0
)

func borderConfig(seed int64, shards int) shard.Config {
	return shard.Config{
		Seed:           seed,
		Shards:         shards,
		Workers:        1,
		World:          spatial.NewRect(0, 0, borderSide, borderSide),
		CellSize:       16,
		TickDT:         0.5,
		GhostBand:      24,
		GhostFields:    shard.BorderGhostFields(),
		ConflictPolicy: world.ConflictLastWrite,
	}
}

type borderServer struct{ cl *shard.Cluster }

func setupBorder(seed int64, tr *obs.Tracer) (server, setupTimes, error) {
	var ts setupTimes
	ts.compileNS = timeCompile(shard.BorderWritePackXML)
	t0 := time.Now()
	cfg := borderConfig(seed, 2)
	cfg.Tracer = tr
	cl, err := shard.NewTCPCluster(cfg)
	if err != nil {
		return nil, ts, fmt.Errorf("tcp mesh: %w", err)
	}
	ts.meshNS = time.Since(t0).Nanoseconds()
	t1 := time.Now()
	if err := shard.SeedBorderCluster(cl, borderUnits, borderSide, seed, borderSpeed); err != nil {
		cl.Close()
		return nil, ts, fmt.Errorf("seed: %w", err)
	}
	ts.seedNS = time.Since(t1).Nanoseconds()
	ts.totalNS = time.Since(t0).Nanoseconds()
	return &borderServer{cl: cl}, ts, nil
}

func (s *borderServer) tick(rec *tickRec) error {
	st, err := s.cl.Step()
	rec.addStep(st)
	return err
}

func (s *borderServer) hash() (uint64, error) { return s.cl.Hash() }
func (s *borderServer) close()                { s.cl.Close() }

func referenceBorder(seed int64, ticks int, want []uint64) ([]uint64, error) {
	rt, err := shard.New(borderConfig(seed, 1))
	if err != nil {
		return nil, err
	}
	defer rt.Close()
	if err := shard.SeedBorderCrowd(rt, borderUnits, borderSide, seed, borderSpeed); err != nil {
		return nil, err
	}
	return runReference(ticks, want, func() error { _, err := rt.Step(); return err },
		func() (uint64, error) { return rt.Hash(), nil })
}

// --- cascade-fanout: trigger cascades feeding a client fan-out hub ---

const (
	cascadeUnits   = 4000
	cascadeSide    = 2000.0
	cascadeSpeed   = 40.0
	fanoutClients  = 10000
	fanoutAOI      = 64.0
	fanoutCell     = 32.0
	fanoutBudget   = 1500
	fanoutSlowFrac = 0.05
	fanoutMoveFrac = 0.02
)

// cascadeSpecs are the client-replicated fields: positions Coarse,
// the cascade counter Exact, the final-trigger flag Cosmetic.
func cascadeSpecs() []replica.FieldSpec {
	return []replica.FieldSpec{
		{Name: "x", Class: replica.Coarse, Epsilon: 0.5, MaxAge: 10},
		{Name: "y", Class: replica.Coarse, Epsilon: 0.5, MaxAge: 10},
		{Name: "boom", Class: replica.Exact},
		{Name: "flag", Class: replica.Cosmetic, Period: 4},
	}
}

func cascadeConfig(seed int64, shards int) shard.Config {
	return shard.Config{
		Seed:      seed,
		Shards:    shards,
		Workers:   1,
		World:     spatial.NewRect(0, 0, cascadeSide, cascadeSide),
		CellSize:  16,
		TickDT:    0.5,
		GhostBand: 24,
	}
}

type cascadeServer struct {
	rt    *shard.Runtime
	hub   *replica.Hub
	pump  *shard.FeedPump
	conns []*replica.Conn
	crng  *rand.Rand
	coord *obs.SpanCtx
}

func setupCascade(seed int64, tr *obs.Tracer) (server, setupTimes, error) {
	var ts setupTimes
	ts.compileNS = timeCompile(shard.CascadePackXML)
	t0 := time.Now()
	cfg := cascadeConfig(seed, 2)
	cfg.Tracer = tr
	rt, err := shard.New(cfg)
	if err != nil {
		return nil, ts, err
	}
	if err := shard.SeedCascadeCrowd(rt, cascadeUnits, cascadeSide, seed, cascadeSpeed); err != nil {
		return nil, ts, fmt.Errorf("seed: %w", err)
	}
	ts.seedNS = time.Since(t0).Nanoseconds()

	t1 := time.Now()
	hub := replica.NewHub(replica.HubConfig{Specs: cascadeSpecs(), Cell: fanoutCell, ByteBudget: fanoutBudget})
	// Clients draw from their own stream so the world evolution is the
	// same as the reference's at equal seeds.
	crng := rand.New(rand.NewSource(seed * 7919))
	conns := make([]*replica.Conn, fanoutClients)
	for i := range conns {
		focus := spatial.Vec2{X: crng.Float64() * cascadeSide, Y: crng.Float64() * cascadeSide}
		budget := 0 // hub default
		if crng.Float64() < fanoutSlowFrac {
			budget = fanoutBudget / 8
		}
		conns[i] = hub.AddClient(i, focus, fanoutAOI, budget)
	}
	pump := shard.NewFeedPump(rt, hub)
	// Publish the seeded population, then connect every window: the
	// first flush snapshots each client's covered cells.
	pump.Pump()
	hub.FlushTick()
	ts.clientsNS = time.Since(t1).Nanoseconds()
	ts.totalNS = time.Since(t0).Nanoseconds()
	return &cascadeServer{rt: rt, hub: hub, pump: pump, conns: conns, crng: crng, coord: tr.Context(obs.CoordShard)}, ts, nil
}

func (s *cascadeServer) tick(rec *tickRec) error {
	st, err := s.rt.Step()
	rec.addStep(st)
	if err != nil {
		return err
	}
	t1 := time.Now()
	s.pump.Pump()
	s.coord.Span("replica.pump", st.Tick, -1, t1)
	t2 := time.Now()
	degrades := s.hub.DegradeTotal.Load()
	rep := s.hub.FlushTick()
	s.coord.Span("replica.flush", st.Tick, -1, t2)
	t3 := time.Now()
	rec.pumpNS = t2.Sub(t1).Nanoseconds()
	rec.flushNS = t3.Sub(t2).Nanoseconds()
	rec.msgs, rec.bytes, rec.fanSnaps, rec.drops = rep.Msgs, rep.Bytes, rep.Snapshots, rep.Drops
	rec.degrades = s.hub.DegradeTotal.Load() - degrades
	moves := int(fanoutClients * fanoutMoveFrac)
	for d := 0; d < moves; d++ {
		c := s.conns[s.crng.Intn(len(s.conns))]
		s.hub.MoveClient(c, spatial.Vec2{
			X: clamp(c.Focus.X+(s.crng.Float64()*2-1)*fanoutAOI, 0, cascadeSide),
			Y: clamp(c.Focus.Y+(s.crng.Float64()*2-1)*fanoutAOI, 0, cascadeSide),
		})
	}
	return nil
}

func (s *cascadeServer) hash() (uint64, error) { return s.rt.Hash(), nil }
func (s *cascadeServer) close()                { s.rt.Close() }

// stalenessP99 is the hub's delivery-delay p99 in ticks.
func (s *cascadeServer) stalenessP99() float64 { return s.hub.Staleness.Quantile(0.99) }

func referenceCascade(seed int64, ticks int, want []uint64) ([]uint64, error) {
	rt, err := shard.New(cascadeConfig(seed, 1))
	if err != nil {
		return nil, err
	}
	defer rt.Close()
	if err := shard.SeedCascadeCrowd(rt, cascadeUnits, cascadeSide, seed, cascadeSpeed); err != nil {
		return nil, err
	}
	return runReference(ticks, want, func() error { _, err := rt.Step(); return err },
		func() (uint64, error) { return rt.Hash(), nil })
}

// --- conflict-occ: contended writes validated and re-run under OCC ---

// The stock SeedConflictWorld claimers drift off the map within ~30
// ticks, so contention fades. This stream holds it instead: beacons sit
// on a grid far enough apart that a claimer's 12.0 scan sees one
// beacon, beacon (gx, gy) gets (gx+gy) mod 5 contenders parked inside
// that radius and two bystanders parked out of it, and every claimer
// creeps slowly enough to stay where it started for the whole run. The
// seed places the claimers; the contention pattern, and so the re-run
// count, is the same for every seed. At most four contenders per beacon
// keeps the serial re-run rounds (contenders − 1) under the default
// retry cap, so no invocation aborts.
const (
	conflictGrid       = 24
	conflictSpacing    = 40.0
	conflictMaxContend = 4
	conflictBystanders = 2
	conflictCreep      = 0.01
)

func conflictConfig(seed int64, workers int) world.Config {
	return world.Config{
		Seed:           seed,
		CellSize:       12,
		TickDT:         0.5,
		Workers:        workers,
		ConflictPolicy: world.ConflictOCC,
	}
}

type conflictServer struct{ w *world.World }

func setupConflict(seed int64, tr *obs.Tracer) (server, setupTimes, error) {
	var ts setupTimes
	t0 := time.Now()
	pack, errs := content.LoadAndCompile(strings.NewReader(shard.ConflictPackXML))
	if len(errs) > 0 {
		return nil, ts, fmt.Errorf("conflict pack rejected: %v", errs[0])
	}
	ts.compileNS = time.Since(t0).Nanoseconds()
	t1 := time.Now()
	cfg := conflictConfig(seed, 2)
	cfg.Trace = tr.Context(0)
	w := world.New(cfg)
	if err := seedConflict(w, pack, seed); err != nil {
		return nil, ts, fmt.Errorf("seed: %w", err)
	}
	ts.seedNS = time.Since(t1).Nanoseconds()
	ts.totalNS = time.Since(t0).Nanoseconds()
	return &conflictServer{w: w}, ts, nil
}

func seedConflict(w *world.World, pack *content.Compiled, seed int64) error {
	if err := w.LoadPack(pack); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	spawn := func(arch string, pos spatial.Vec2, vx, vy float64) error {
		id, err := w.Spawn(arch, pos)
		if err != nil {
			return err
		}
		if err := w.Set(id, "vx", entity.Float(vx)); err != nil {
			return err
		}
		return w.Set(id, "vy", entity.Float(vy))
	}
	creep := func() float64 { return (rng.Float64()*2 - 1) * conflictCreep }
	for gy := 0; gy < conflictGrid; gy++ {
		for gx := 0; gx < conflictGrid; gx++ {
			b := spatial.Vec2{X: (float64(gx) + 0.5) * conflictSpacing, Y: (float64(gy) + 0.5) * conflictSpacing}
			if _, err := w.Spawn("beacon", b); err != nil {
				return err
			}
			contenders := (gx + gy) % (conflictMaxContend + 1)
			for i := 0; i < contenders; i++ {
				// Uniform in a disc of radius 9 around the beacon.
				r, a := 9*math.Sqrt(rng.Float64()), 2*math.Pi*rng.Float64()
				pos := spatial.Vec2{X: b.X + r*math.Cos(a), Y: b.Y + r*math.Sin(a)}
				if err := spawn("claimer", pos, creep(), creep()); err != nil {
					return err
				}
			}
			for i := 0; i < conflictBystanders; i++ {
				// Near the cell corner: ≥ 20 from every beacon.
				pos := spatial.Vec2{
					X: b.X - conflictSpacing/2 + (rng.Float64()*2-1)*3,
					Y: b.Y - conflictSpacing/2 + (rng.Float64()*2-1)*3,
				}
				if err := spawn("claimer", pos, creep(), creep()); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (s *conflictServer) tick(rec *tickRec) error {
	st, err := s.w.Step()
	rec.addWorld(st)
	rec.entities = s.w.LocalEntities()
	return err
}

func (s *conflictServer) hash() (uint64, error) { return worldHash(s.w), nil }
func (s *conflictServer) close()                {}

func referenceConflict(seed int64, ticks int, want []uint64) ([]uint64, error) {
	pack, errs := content.LoadAndCompile(strings.NewReader(shard.ConflictPackXML))
	if len(errs) > 0 {
		return nil, fmt.Errorf("conflict pack rejected: %v", errs[0])
	}
	w := world.New(conflictConfig(seed, 1))
	if err := seedConflict(w, pack, seed); err != nil {
		return nil, err
	}
	return runReference(ticks, want, func() error { _, err := w.Step(); return err },
		func() (uint64, error) { return worldHash(w), nil })
}

// worldHash digests every owned row of w in (id, table) order with
// FNV-64a, bit-exactly for floats.
func worldHash(w *world.World) uint64 {
	type row struct {
		id    entity.ID
		table string
		vals  []entity.Value
	}
	var rows []row
	for _, name := range w.TableNames() {
		t, _ := w.Table(name)
		t.Scan(func(id entity.ID, vals []entity.Value) bool {
			if !w.IsGhost(id) {
				rows = append(rows, row{id, name, append([]entity.Value(nil), vals...)})
			}
			return true
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].id != rows[j].id {
			return rows[i].id < rows[j].id
		}
		return rows[i].table < rows[j].table
	})
	h := fnv.New64a()
	var buf [8]byte
	for _, r := range rows {
		h.Write([]byte(r.table))
		binary.LittleEndian.PutUint64(buf[:], uint64(r.id))
		h.Write(buf[:])
		for _, v := range r.vals {
			h.Write([]byte{byte(v.Kind())})
			switch v.Kind() {
			case entity.KindInt:
				binary.LittleEndian.PutUint64(buf[:], uint64(v.Int()))
			case entity.KindFloat:
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v.Float()))
			default:
				h.Write([]byte(v.String()))
				continue
			}
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// --- shared helpers ---------------------------------------------------

// runReference steps a reference world ticks times and returns its
// hash at the checkpoints an episode records. It stops at the first
// checkpoint that differs from want, the episode's hashes: the hashes
// after a divergence carry no more news.
func runReference(ticks int, want []uint64, step func() error, hash func() (uint64, error)) ([]uint64, error) {
	var sums []uint64
	for i := 1; i <= ticks; i++ {
		if err := step(); err != nil {
			return nil, fmt.Errorf("reference tick %d: %w", i, err)
		}
		if isCheckpoint(i, ticks) {
			h, err := hash()
			if err != nil {
				return nil, err
			}
			sums = append(sums, h)
			if k := len(sums) - 1; k >= len(want) || h != want[k] {
				break
			}
		}
	}
	return sums, nil
}

func isCheckpoint(i, ticks int) bool { return i%checkEvery == 0 || i == ticks }

// timeCompile times one compile of a pack a seeder compiles itself.
func timeCompile(xml string) int64 {
	t0 := time.Now()
	content.LoadAndCompile(strings.NewReader(xml))
	return time.Since(t0).Nanoseconds()
}

func clamp(v, lo, hi float64) float64 { return math.Max(lo, math.Min(hi, v)) }
