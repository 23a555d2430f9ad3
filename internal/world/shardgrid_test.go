package world_test

// Equivalence tests that pin production tick stages to their reference
// implementations on the sharded runtime. Each grid point runs twice:
// once as shipped, once with every shard world switched onto a
// reference through the export_test.go hooks (applied via
// Runtime.ShardWorld before seeding). Hashes and accounting must agree.

import (
	"bytes"
	"testing"

	"gamedb/internal/shard"
	"gamedb/internal/spatial"
	"gamedb/internal/world"
)

// gridResult is one run's final hash plus its summed tick accounting.
type gridResult struct {
	hash                     uint64
	effects, fired, compiled int
}

// runGrid drives the mingle or cascade tick-pipeline workload on a
// shards-way runtime, with ref (when non-nil) applied to every shard
// world first.
func runGrid(t *testing.T, scenario string, shards, workers int, ref func(*world.World)) gridResult {
	t.Helper()
	cfg := shard.Config{
		Seed: 7, Shards: shards, TickDT: 0.5, GhostBand: 25, Workers: workers,
		ScriptFuel: 1 << 20,
	}
	var seed func(rt *shard.Runtime) error
	ticks := 25
	switch scenario {
	case "mingle":
		cfg.World = spatial.NewRect(0, 0, 400, 400)
		seed = func(rt *shard.Runtime) error { return shard.SeedMingleCrowd(rt, 250, 400, 77, 30) }
	case "cascade":
		cfg.World = spatial.NewRect(0, 0, 1000, 1000)
		seed = func(rt *shard.Runtime) error { return shard.SeedCascadeCrowd(rt, 200, 1000, 77, 30) }
		ticks = 40
	default:
		t.Fatalf("unknown scenario %q", scenario)
	}
	rt, err := shard.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	if ref != nil {
		for i := 0; i < rt.Shards(); i++ {
			ref(rt.ShardWorld(i))
		}
	}
	if err := seed(rt); err != nil {
		t.Fatal(err)
	}
	var res gridResult
	for i := 0; i < ticks; i++ {
		st, err := rt.Step()
		if err != nil {
			t.Fatalf("%s shards=%d workers=%d tick %d: %v", scenario, shards, workers, st.Tick, err)
		}
		for _, ws := range st.Shards {
			if ws.ScriptErrors > 0 {
				t.Fatalf("%s shards=%d workers=%d: script errors", scenario, shards, workers)
			}
			res.effects += ws.Effects
			res.fired += ws.TriggerFired
			res.compiled += ws.CompiledCalls
		}
	}
	if res.effects == 0 {
		t.Fatalf("%s shards=%d workers=%d: scenario applied no effects", scenario, shards, workers)
	}
	if shards > 1 && rt.HandoffTotal.Load() == 0 {
		t.Fatalf("%s: %d shards: no handoffs — scenario not exercising boundaries", scenario, shards)
	}
	res.hash = rt.Hash()
	return res
}

// forGrid runs check at every Shards × Workers grid point on both
// workloads.
func forGrid(check func(scenario string, shards, workers int)) {
	for _, scenario := range []string{"mingle", "cascade"} {
		for _, workers := range []int{1, 2, 4, 8} {
			for _, shards := range []int{1, 2, 4} {
				check(scenario, shards, workers)
			}
		}
	}
}

// TestBatchedApplyHashInvariantAcrossGrid pins the columnar apply to
// the row-at-a-time reference bit-for-bit across the whole
// Shards × Workers grid, on both tick-pipeline workloads: the
// apply-heavy mingle crowd (set + add floods over four columns plus
// physics deltas) and the trigger cascade (per-round applies inside the
// trigger drain). Grouping by (table, column) must never show in the
// world state — only in the profile.
func TestBatchedApplyHashInvariantAcrossGrid(t *testing.T) {
	forGrid(func(scenario string, shards, workers int) {
		got := runGrid(t, scenario, shards, workers, nil)
		want := runGrid(t, scenario, shards, workers, world.UseRowAssign)
		if got.hash != want.hash || got.effects != want.effects || got.fired != want.fired {
			t.Fatalf("%s shards=%d workers=%d: batched apply %+v, row reference %+v",
				scenario, shards, workers, got, want)
		}
	})
}

// TestEffectDrainMatchesDirectDrain: the serial direct drain is the
// semantic baseline of the effect-round trigger drain. On the strictly
// per-entity cascade both must produce the identical world and the
// same activation count.
func TestEffectDrainMatchesDirectDrain(t *testing.T) {
	for _, shards := range []int{1, 2} {
		got := runGrid(t, "cascade", shards, 1, nil)
		want := runGrid(t, "cascade", shards, 1, world.UseDirectDrain)
		if got.fired == 0 {
			t.Fatal("scenario fired no triggers")
		}
		if got.hash != want.hash || got.fired != want.fired {
			t.Fatalf("shards=%d: effect drain %+v, direct reference %+v", shards, got, want)
		}
	}
}

// TestCompiledBehaviorsHashInvariantAcrossGrid pins the compiled
// query-plan path to the interpreter bit-for-bit across the whole
// Shards × Workers grid on both tick-pipeline workloads. The mingle and
// cascade behaviors are fully compilable, so the production run must
// report compiled calls while landing on the interpreter's hash at
// every grid point — set-at-a-time execution may only change where the
// time goes, never the world.
func TestCompiledBehaviorsHashInvariantAcrossGrid(t *testing.T) {
	forGrid(func(scenario string, shards, workers int) {
		ref := runGrid(t, scenario, shards, workers, world.UseInterpreter)
		if ref.compiled != 0 {
			t.Fatalf("%s: interpreter reference counted %d compiled calls", scenario, ref.compiled)
		}
		got := runGrid(t, scenario, shards, workers, nil)
		if got.hash != ref.hash || got.effects != ref.effects {
			t.Fatalf("%s shards=%d workers=%d: compiled %+v, interpreter %+v",
				scenario, shards, workers, got, ref)
		}
		if got.compiled == 0 {
			t.Fatalf("%s: ran zero compiled calls at shards=%d workers=%d", scenario, shards, workers)
		}
	})
}

// TestCompiledOCCEquivalentOnConflictWorld runs the contended claim
// scenario under the OCC policy compiled and on the interpreter
// reference: the compiled path logs the same (id, column) read-sets,
// so invalidation must pick the same losers and converge to the
// identical snapshot with identical retry/abort/fuel accounting.
func TestCompiledOCCEquivalentOnConflictWorld(t *testing.T) {
	run := func(interpret bool) ([]byte, world.TickStats) {
		w := world.New(world.Config{
			Seed: 7, CellSize: 16, TickDT: 0.5, Workers: 4,
			ConflictPolicy: world.ConflictOCC,
		})
		if interpret {
			world.UseInterpreter(w)
		}
		if err := shard.SeedConflictWorld(w, 120, 25, 200, 77); err != nil {
			t.Fatal(err)
		}
		var sum world.TickStats
		for i := 0; i < 20; i++ {
			st, err := w.Step()
			if err != nil {
				t.Fatal(err)
			}
			sum.ScriptCalls += st.ScriptCalls
			sum.CompiledCalls += st.CompiledCalls
			sum.FuelUsed += st.FuelUsed
			sum.EffectRetries += st.EffectRetries
			sum.EffectAborts += st.EffectAborts
		}
		snap, err := w.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return snap, sum
	}
	base, off := run(true)
	if off.EffectRetries == 0 {
		t.Fatal("conflict scenario produced no retries — invalidation untested")
	}
	snap, on := run(false)
	if !bytes.Equal(base, snap) {
		t.Fatal("occ snapshot diverged from the interpreter reference")
	}
	if on.EffectRetries != off.EffectRetries || on.EffectAborts != off.EffectAborts {
		t.Fatalf("occ accounting diverged: retries %d/%d aborts %d/%d",
			on.EffectRetries, off.EffectRetries, on.EffectAborts, off.EffectAborts)
	}
	if on.ScriptCalls != off.ScriptCalls || on.FuelUsed != off.FuelUsed {
		t.Fatalf("call accounting diverged: calls %d/%d fuel %d/%d",
			on.ScriptCalls, off.ScriptCalls, on.FuelUsed, off.FuelUsed)
	}
	if on.CompiledCalls == 0 {
		t.Fatal("conflict world ran zero compiled calls")
	}
}

// TestBundledPacksCompileByDefault: with no option set, every bundled
// scenario runs its behaviors as compiled plans.
func TestBundledPacksCompileByDefault(t *testing.T) {
	seeders := map[string]func(rt *shard.Runtime) error{
		"mingle":  func(rt *shard.Runtime) error { return shard.SeedMingleCrowd(rt, 100, 400, 1, 30) },
		"cascade": func(rt *shard.Runtime) error { return shard.SeedCascadeCrowd(rt, 100, 400, 1, 30) },
		"border":  func(rt *shard.Runtime) error { return shard.SeedBorderCrowd(rt, 100, 400, 1, 6) },
	}
	for name, seed := range seeders {
		rt, err := shard.New(shard.Config{World: spatial.NewRect(0, 0, 400, 400)})
		if err != nil {
			t.Fatal(err)
		}
		if err := seed(rt); err != nil {
			t.Fatal(err)
		}
		st, err := rt.Step()
		if err != nil {
			t.Fatal(err)
		}
		if st.Shards[0].CompiledCalls == 0 {
			t.Errorf("%s: no compiled calls with default options", name)
		}
	}
	w := world.New(world.Config{})
	if err := shard.SeedConflictWorld(w, 50, 8, 200, 1); err != nil {
		t.Fatal(err)
	}
	if st, err := w.Step(); err != nil || st.CompiledCalls == 0 {
		t.Errorf("conflict: %d compiled calls, err %v", st.CompiledCalls, err)
	}
}
