// Quickstart: build an engine from the public gamedb API, load a
// data-driven content pack, run the simulation, and checkpoint/recover —
// the five-minute tour of the library.
package main

import (
	"fmt"
	"log"
	"strings"

	"gamedb"
)

const pack = `
<contentpack name="meadow">
  <schema table="units">
    <column name="hp" kind="int" default="100"/>
    <column name="x" kind="float"/>
    <column name="y" kind="float"/>
    <column name="mood" kind="string" default="calm"/>
  </schema>
  <archetype name="rabbit" table="units" script="wander">
    <set column="hp" value="10"/>
  </archetype>
  <script name="wander" restricted="true">
fn on_tick(self) {
  move_toward(self, pos_x(self) + rand_float() * 4.0 - 2.0,
              pos_y(self) + rand_float() * 4.0 - 2.0, 1.0)
  let crowd = nearby(self, 5.0)
  if len(crowd) > 3 { set(self, "mood", "crowded") }
}
  </script>
  <spawn archetype="rabbit" count="40" x="50" y="50" spread="20"/>
</contentpack>`

func main() {
	// An engine with event-keyed ("intelligent") checkpointing.
	eng, err := gamedb.New(gamedb.Options{
		World:      gamedb.WorldConfig{Seed: 7},
		Checkpoint: gamedb.EventKeyed{MaxTicks: 500},
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := eng.LoadPackXML(strings.NewReader(pack)); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %d rabbits\n", eng.World.Entities())

	for i := 0; i < 100; i++ {
		if _, err := eng.Tick(); err != nil {
			log.Fatal(err)
		}
	}

	// Query game state directly through the table API.
	units, _ := eng.World.Table("units")
	crowded := 0
	units.Scan(func(id gamedb.ID, row []gamedb.Value) bool {
		if row[units.Schema().MustCol("mood")] == gamedb.Str("crowded") {
			crowded++
		}
		return true
	})
	fmt.Printf("after 100 ticks: %d rabbits feel crowded\n", crowded)

	// An important event (a rare carrot!) checkpoints immediately...
	if err := eng.NoteImportant(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checkpoints taken: %d\n", eng.Checkpoints)

	// ...so a crash right after loses nothing.
	lost, err := eng.CrashAndRecover()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("crash recovered, ticks of progress lost: %d\n", lost)
	fmt.Printf("world resumed at tick %d with %d entities\n",
		eng.World.Tick(), eng.World.Entities())
}
