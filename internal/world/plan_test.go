package world

import (
	"bytes"
	"testing"

	"gamedb/internal/spatial"
)

// compiledCrowdPack is a fully compilable workload: flocking math over
// nearby/get/move_toward/add plus a per-entity rand jitter, so the
// compiled path must reproduce the interpreter's effect records AND its
// deterministic rand stream bit-for-bit.
const compiledCrowdPack = `
<contentpack name="compiled-crowd">
  <schema table="units">
    <column name="met" kind="int"/>
    <column name="jit" kind="float"/>
    <column name="x" kind="float"/>
    <column name="y" kind="float"/>
  </schema>
  <archetype name="unit" table="units" script="mingle"/>
  <archetype name="chatty" table="units" script="chatty"/>
  <script name="mingle">
fn on_tick(self) {
  set(self, "jit", rand_float());
  let ns = nearby(self, 8.0);
  let n = len(ns);
  if n == 0 { return; }
  let cx = 0.0;
  let cy = 0.0;
  for id in ns {
    cx = cx + get(id, "x");
    cy = cy + get(id, "y");
  }
  move_toward(self, cx / n, cy / n, 0.5);
  add(self, "met", n);
}
  </script>
  <script name="chatty">
fn on_tick(self) {
  let seen = list();
  push(seen, self);
  add(self, "met", len(seen));
}
  </script>
</contentpack>`

// runCompiledCrowd builds the crowd — on the interpreter reference
// when interpret is set — runs it, and returns the snapshot plus summed
// tick stats.
func runCompiledCrowd(t *testing.T, interpret bool, workers, ticks int) ([]byte, TickStats) {
	t.Helper()
	w := loadPack(t, Config{Seed: 11, CellSize: 8, Workers: workers}, compiledCrowdPack)
	if interpret {
		UseInterpreter(w)
	}
	for i := 0; i < 24; i++ {
		arch := "unit"
		if i%6 == 0 {
			arch = "chatty"
		}
		if _, err := w.Spawn(arch, spatial.Vec2{X: float64(i % 5), Y: float64(i / 5)}); err != nil {
			t.Fatal(err)
		}
	}
	var sum TickStats
	for i := 0; i < ticks; i++ {
		st, err := w.Step()
		if err != nil {
			t.Fatal(err)
		}
		if st.ScriptErrors > 0 {
			t.Fatalf("interpret=%v tick %d: %v", interpret, st.Tick, w.LastScriptError)
		}
		sum.ScriptCalls += st.ScriptCalls
		sum.ScriptSkips += st.ScriptSkips
		sum.CompiledCalls += st.CompiledCalls
		sum.FuelUsed += st.FuelUsed
		sum.Effects += st.Effects
	}
	snap, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snap, sum
}

// TestCompiledMatchesInterpreted pins the compiled path to the
// interpreter bit-for-bit on a compilable crowd, including fuel
// accounting, across worker counts — and checks the coverage split:
// mingle runs compiled, chatty (list/push are not compilable) falls
// back.
func TestCompiledMatchesInterpreted(t *testing.T) {
	const ticks = 12
	base, baseStats := runCompiledCrowd(t, true, 1, ticks)
	if baseStats.Effects == 0 {
		t.Fatal("crowd emitted no effects — workload inert")
	}
	if baseStats.CompiledCalls != 0 {
		t.Fatalf("interpreter reference counted %d compiled calls", baseStats.CompiledCalls)
	}
	for _, workers := range []int{1, 2, 4} {
		snap, st := runCompiledCrowd(t, false, workers, ticks)
		if !bytes.Equal(base, snap) {
			t.Fatalf("compiled world diverged from interpreted at workers=%d", workers)
		}
		if st.ScriptCalls != baseStats.ScriptCalls || st.FuelUsed != baseStats.FuelUsed ||
			st.Effects != baseStats.Effects {
			t.Fatalf("workers=%d stats diverged: calls %d/%d fuel %d/%d effects %d/%d",
				workers, st.ScriptCalls, baseStats.ScriptCalls,
				st.FuelUsed, baseStats.FuelUsed, st.Effects, baseStats.Effects)
		}
		if st.CompiledCalls == 0 {
			t.Fatalf("workers=%d: ran zero compiled calls", workers)
		}
		if st.CompiledCalls >= st.ScriptCalls {
			t.Fatalf("workers=%d: chatty fallback missing (compiled %d of %d calls)",
				workers, st.CompiledCalls, st.ScriptCalls)
		}
	}
}

// TestCompiledFallbackKeepsChaosIdentical: the chaos pack's scripts all
// hit non-compilable constructs (spawn, despawn, break), so the world
// must degrade to pure fallback, identical to the interpreter reference.
func TestCompiledFallbackKeepsChaosIdentical(t *testing.T) {
	run := func(interpret bool) ([]byte, int) {
		w := loadPack(t, Config{Seed: 9, CellSize: 8, Workers: 4}, chaosPack)
		if interpret {
			UseInterpreter(w)
		}
		compiled := 0
		for i := 0; i < 20; i++ {
			st, err := w.Step()
			if err != nil {
				t.Fatal(err)
			}
			compiled += st.CompiledCalls
		}
		snap, err := w.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return snap, compiled
	}
	base, _ := run(true)
	snap, compiled := run(false)
	if compiled != 0 {
		t.Fatalf("chaos scripts compiled %d calls, want pure fallback", compiled)
	}
	if !bytes.Equal(base, snap) {
		t.Fatal("fallback-only world diverged from the interpreter reference")
	}
}

// TestCompiledOCCEquivalence: under the OCC policy the compiled path
// must log the same read-sets, so invalidation picks the same losers
// and re-runs converge to the same serializable state with identical
// retry/abort accounting.
func TestCompiledOCCEquivalence(t *testing.T) {
	run := func(interpret bool) ([]byte, TickStats) {
		w := spawnConflictQuartet(t, Config{Seed: 1, Workers: 2, ConflictPolicy: ConflictOCC}, 7)
		if interpret {
			UseInterpreter(w)
		}
		var sum TickStats
		for i := 0; i < 5; i++ {
			st, err := w.Step()
			if err != nil {
				t.Fatal(err)
			}
			sum.EffectRetries += st.EffectRetries
			sum.EffectAborts += st.EffectAborts
			sum.ScriptCalls += st.ScriptCalls
			sum.CompiledCalls += st.CompiledCalls
			sum.FuelUsed += st.FuelUsed
		}
		snap, err := w.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return snap, sum
	}
	base, off := run(true)
	if off.EffectRetries == 0 {
		t.Fatal("quartet produced no retries — conflict machinery not exercised")
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
		t.Fatalf("stats diverged: calls %d/%d fuel %d/%d",
			on.ScriptCalls, off.ScriptCalls, on.FuelUsed, off.FuelUsed)
	}
	if on.CompiledCalls == 0 {
		t.Fatal("quartet ran zero compiled calls")
	}
}

// TestCompiledFuelSkipParity: a starved fuel budget must skip the same
// invocations in either mode — a compiled overrun rolls back and the
// interpreter rerun owns the skip accounting.
func TestCompiledFuelSkipParity(t *testing.T) {
	run := func(interpret bool) ([]byte, TickStats) {
		w := loadPack(t, Config{Seed: 11, CellSize: 8, Workers: 2, ScriptFuel: 18}, compiledCrowdPack)
		if interpret {
			UseInterpreter(w)
		}
		for i := 0; i < 16; i++ {
			if _, err := w.Spawn("unit", spatial.Vec2{X: float64(i % 4), Y: float64(i / 4)}); err != nil {
				t.Fatal(err)
			}
		}
		var sum TickStats
		for i := 0; i < 8; i++ {
			st, err := w.Step()
			if err != nil {
				t.Fatal(err)
			}
			sum.ScriptCalls += st.ScriptCalls
			sum.ScriptSkips += st.ScriptSkips
			sum.FuelUsed += st.FuelUsed
		}
		snap, err := w.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return snap, sum
	}
	base, off := run(true)
	if off.ScriptSkips == 0 {
		t.Fatal("fuel budget did not starve any invocation — parity untested")
	}
	snap, on := run(false)
	if !bytes.Equal(base, snap) {
		t.Fatal("starved world diverged from the interpreter reference")
	}
	if on.ScriptSkips != off.ScriptSkips || on.FuelUsed != off.FuelUsed {
		t.Fatalf("skip accounting diverged: skips %d/%d fuel %d/%d",
			on.ScriptSkips, off.ScriptSkips, on.FuelUsed, off.FuelUsed)
	}
}

// TestPlanForReportsCompileState checks the introspection hook gslrun's
// -plan flag rides on: explain text for compiled scripts, the first
// offending construct for fallbacks, not-found otherwise.
func TestPlanForReportsCompileState(t *testing.T) {
	w := loadPack(t, Config{Seed: 1}, compiledCrowdPack)
	explain, fallback, ok := w.PlanFor("mingle")
	if !ok || explain == "" || fallback != "" {
		t.Fatalf("mingle: explain=%q fallback=%q ok=%v", explain, fallback, ok)
	}
	_, fallback, ok = w.PlanFor("chatty")
	if !ok || fallback == "" {
		t.Fatalf("chatty: fallback=%q ok=%v, want non-compilable reason", fallback, ok)
	}
	if _, _, ok := w.PlanFor("nope"); ok {
		t.Fatal("unknown script reported a plan")
	}
}
