package core

import (
	"strings"
	"testing"

	"gamedb/internal/spatial"
)

const shardedPackXML = `
<contentpack name="drift">
  <schema table="units">
    <column name="hp" kind="int" default="100"/>
    <column name="x" kind="float"/>
    <column name="y" kind="float"/>
    <column name="vx" kind="float" default="12.5"/>
    <column name="vy" kind="float"/>
  </schema>
  <archetype name="npc" table="units"/>
  <spawn archetype="npc" count="40" x="500" y="500" spread="450"/>
</contentpack>`

func newSharded(t *testing.T, shards int) *ShardedEngine {
	t.Helper()
	e, err := NewSharded(ShardedOptions{
		Seed:      9,
		Shards:    shards,
		World:     spatial.NewRect(0, 0, 1000, 1000),
		TickDT:    1,
		GhostBand: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	if err := e.LoadPackXML(strings.NewReader(shardedPackXML)); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestShardedEngineLifecycle(t *testing.T) {
	e := newSharded(t, 4)
	if got := e.Entities(); got != 40 {
		t.Fatalf("entities = %d, want 40", got)
	}
	// The pack's spawns land on the shard owning each position, not on
	// every shard.
	perShard := 0
	for i := 0; i < e.Runtime.Shards(); i++ {
		perShard += e.ShardWorld(i).LocalEntities()
	}
	if perShard != 40 {
		t.Fatalf("sum of shard-local entities = %d, want 40", perShard)
	}
	st, err := e.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if st.Tick != 1 || st.Entities != 40 {
		t.Fatalf("step stats = %+v", st)
	}
}

func TestShardedEngineHashMatchesSingleShard(t *testing.T) {
	// The same pack + seed must produce identical state digests on 1
	// and 4 shards after entities drift across boundaries (vx default
	// 12.5 pushes everyone rightward through the vertical splits).
	e1, e4 := newSharded(t, 1), newSharded(t, 4)
	for i := 0; i < 30; i++ {
		if _, err := e1.Tick(); err != nil {
			t.Fatal(err)
		}
		if _, err := e4.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if e1.Hash() != e4.Hash() {
		t.Fatalf("hash diverged: 1 shard %x, 4 shards %x", e1.Hash(), e4.Hash())
	}
	if e4.Runtime.HandoffTotal.Load() == 0 {
		t.Fatal("scenario produced no handoffs")
	}
	if e1.Entities() != e4.Entities() {
		t.Fatalf("entity totals diverged: %d vs %d", e1.Entities(), e4.Entities())
	}
}

func TestShardedEngineHashInvariantUnderWorkers(t *testing.T) {
	// Seed reproducibility must hold on the full (shards × workers)
	// grid, not just across shard counts.
	mk := func(shards, workers int) *ShardedEngine {
		e, err := NewSharded(ShardedOptions{
			Seed:      9,
			Shards:    shards,
			Workers:   workers,
			World:     spatial.NewRect(0, 0, 1000, 1000),
			TickDT:    1,
			GhostBand: 30,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(e.Close)
		if err := e.LoadPackXML(strings.NewReader(shardedPackXML)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 25; i++ {
			if _, err := e.Tick(); err != nil {
				t.Fatal(err)
			}
		}
		return e
	}
	base := mk(1, 1).Hash()
	if got := mk(4, 4).Hash(); got != base {
		t.Fatalf("hash diverged: 1 shard/1 worker %x, 4 shards/4 workers %x", base, got)
	}
}

func TestShardedRejectsBadOptions(t *testing.T) {
	if _, err := NewSharded(ShardedOptions{Shards: 2}); err == nil {
		t.Fatal("zero-area world should be rejected")
	}
	e, err := NewSharded(ShardedOptions{
		Shards: 0, World: spatial.NewRect(0, 0, 10, 10),
	})
	if err != nil {
		t.Fatalf("0 shards should default to 1, got %v", err)
	}
	if e.Runtime.Shards() != 1 {
		t.Fatalf("Shards() = %d, want 1", e.Runtime.Shards())
	}
	e.Close()
	_, err = NewSharded(ShardedOptions{
		Shards: 2, World: spatial.NewRect(0, 0, 10, 10), ConflictPolicy: "serializable",
	})
	if err == nil || !strings.Contains(err.Error(), `"serializable"`) {
		t.Fatalf("conflict policy \"serializable\": err = %v, want one naming the value", err)
	}
}
