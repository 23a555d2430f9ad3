package core

import (
	"strings"
	"testing"

	"gamedb/internal/entity"
	"gamedb/internal/persist"
	"gamedb/internal/replica"
	"gamedb/internal/spatial"
	"gamedb/internal/world"
)

const packXML = `
<contentpack name="shard">
  <schema table="units">
    <column name="hp" kind="int" default="100"/>
    <column name="x" kind="float"/>
    <column name="y" kind="float"/>
    <column name="vx" kind="float"/>
    <column name="vy" kind="float"/>
  </schema>
  <archetype name="npc" table="units"/>
  <spawn archetype="npc" count="5" x="50" y="50" spread="10"/>
</contentpack>`

func TestEngineLifecycle(t *testing.T) {
	e, err := New(Options{World: world.Config{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.LoadPackXML(strings.NewReader(packXML)); err != nil {
		t.Fatal(err)
	}
	if e.World.Entities() != 5 {
		t.Fatalf("entities = %d", e.World.Entities())
	}
	st, err := e.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if st.Tick != 1 {
		t.Fatalf("tick = %d", st.Tick)
	}
	// No persistence configured: Checkpoint and recovery must refuse.
	if err := e.Checkpoint(); err == nil {
		t.Fatal("checkpoint without persistence should fail")
	}
	if _, err := e.CrashAndRecover(); err == nil {
		t.Fatal("recover without persistence should fail")
	}
}

func TestLoadPackXMLAggregatesErrors(t *testing.T) {
	e, _ := New(Options{})
	err := e.LoadPackXML(strings.NewReader(`<contentpack name="x">
	  <schema table="t"><column name="a" kind="wat"/></schema>
	  <archetype name="o" table="zzz"/>
	</contentpack>`))
	if err == nil {
		t.Fatal("bad pack should fail")
	}
	if !strings.Contains(err.Error(), "unknown kind") || !strings.Contains(err.Error(), "unknown table") {
		t.Fatalf("error should list all problems:\n%v", err)
	}
}

func TestPeriodicCheckpointingAndRecovery(t *testing.T) {
	e, err := New(Options{World: world.Config{Seed: 1}, Checkpoint: persist.Periodic{EveryTicks: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.LoadPackXML(strings.NewReader(packXML)); err != nil {
		t.Fatal(err)
	}
	var id entity.ID = 1
	for i := 0; i < 25; i++ {
		if _, err := e.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if e.Checkpoints != 2 {
		t.Fatalf("checkpoints = %d, want 2 (ticks 10, 20)", e.Checkpoints)
	}
	// Mutate after the last checkpoint, then crash.
	e.World.Set(id, "hp", entity.Int(1))
	lost, err := e.CrashAndRecover()
	if err != nil {
		t.Fatal(err)
	}
	if lost != 5 {
		t.Fatalf("lost ticks = %d, want 5", lost)
	}
	v, err := e.World.Get(id, "hp")
	if err != nil {
		t.Fatal(err)
	}
	if v != entity.Int(100) {
		t.Fatalf("hp = %v, rollback failed", v)
	}
	if e.World.Tick() != 20 {
		t.Fatalf("tick after recovery = %d", e.World.Tick())
	}
}

func TestEventKeyedCheckpointOnImportant(t *testing.T) {
	e, err := New(Options{World: world.Config{Seed: 1}, Checkpoint: persist.EventKeyed{MaxTicks: 1000}})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.LoadPackXML(strings.NewReader(packXML)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		e.Tick()
	}
	if e.Checkpoints != 0 {
		t.Fatalf("checkpoints before important event = %d", e.Checkpoints)
	}
	if err := e.NoteImportant(); err != nil {
		t.Fatal(err)
	}
	if e.Checkpoints != 1 {
		t.Fatalf("checkpoints after important event = %d", e.Checkpoints)
	}
	lost, err := e.CrashAndRecover()
	if err != nil || lost != 0 {
		t.Fatalf("lost = %d, %v; important progress must survive", lost, err)
	}
}

func TestReplicationIntegration(t *testing.T) {
	e, err := New(Options{
		World: world.Config{Seed: 1},
		ReplicaFields: []replica.FieldSpec{
			{Name: "hp", Class: replica.Exact},
			{Name: "x", Class: replica.Coarse, Epsilon: 5, MaxAge: 100},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.LoadPackXML(strings.NewReader(packXML)); err != nil {
		t.Fatal(err)
	}
	c := e.Replica.AddClient("p1", spatial.Vec2{X: 50, Y: 50}, 200)
	if _, err := e.Tick(); err != nil {
		t.Fatal(err)
	}
	if c.Snapshots != 5 {
		t.Fatalf("client snapshots = %d, want 5", c.Snapshots)
	}
	// An exact field change ships next tick.
	e.World.Set(1, "hp", entity.Int(55))
	e.Tick()
	if got, _ := e.Replica.Get(1, "hp"); got != 55 {
		t.Fatalf("server hp = %v", got)
	}
	if d, _ := e.Replica.Divergence(c, "hp"); d != 0 {
		t.Fatalf("exact divergence = %v", d)
	}
	// Despawn propagates.
	e.World.Despawn(1)
	e.Tick()
	if c.Has(1) {
		t.Fatal("despawn did not propagate to client")
	}
}

func TestReplicaValidationFailure(t *testing.T) {
	if _, err := New(Options{ReplicaFields: []replica.FieldSpec{{Name: ""}}}); err == nil {
		t.Fatal("bad replica spec should fail")
	}
}

func TestNewRejectsUnknownConflictPolicy(t *testing.T) {
	_, err := New(Options{World: world.Config{ConflictPolicy: "OCC"}})
	if err == nil || !strings.Contains(err.Error(), `"OCC"`) {
		t.Fatalf("New with conflict policy \"OCC\": err = %v, want one naming the value", err)
	}
}
