package core

import (
	"fmt"
	"io"

	"gamedb/internal/content"
	"gamedb/internal/entity"
	"gamedb/internal/shard"
	"gamedb/internal/spatial"
	"gamedb/internal/world"
)

// ShardedOptions configures NewSharded: a shard.Config, whose World
// rect must have positive area.
type ShardedOptions = shard.Config

// ShardedEngine is a sharded world runtime behind the same content and
// tick surface as Engine: one world partitioned into region shards,
// each ticking on its own goroutine under a barrier coordinator.
type ShardedEngine struct {
	Runtime *shard.Runtime
}

// NewSharded builds a sharded engine.
func NewSharded(opts ShardedOptions) (*ShardedEngine, error) {
	if opts.World.Width() <= 0 || opts.World.Height() <= 0 {
		return nil, fmt.Errorf("core: sharded engine needs a world rect with positive area")
	}
	rt, err := shard.New(opts)
	if err != nil {
		return nil, err
	}
	return &ShardedEngine{Runtime: rt}, nil
}

// LoadPackXML loads a content pack from XML into every shard; the pack's
// spawns run once, each entity materializing on the shard owning its
// position. Initial ghost mirrors are synchronized before return.
func (e *ShardedEngine) LoadPackXML(r io.Reader) error {
	c, errs := content.LoadAndCompile(r)
	if len(errs) > 0 {
		msg := "core: content pack rejected:"
		for _, err := range errs {
			msg += "\n  " + err.Error()
		}
		return fmt.Errorf("%s", msg)
	}
	if err := e.Runtime.LoadPack(c); err != nil {
		return err
	}
	return e.Runtime.Sync()
}

// Tick advances all shards one step through the tick barrier.
func (e *ShardedEngine) Tick() (shard.StepStats, error) { return e.Runtime.Step() }

// Spawn instantiates an archetype on the shard owning pos.
func (e *ShardedEngine) Spawn(archetype string, pos spatial.Vec2) (entity.ID, error) {
	return e.Runtime.Spawn(archetype, pos)
}

// Entities returns the owned-entity total across shards.
func (e *ShardedEngine) Entities() int { return e.Runtime.Entities() }

// Hash returns the deterministic digest of the owned world state; equal
// seeds yield equal hashes for any shard count.
func (e *ShardedEngine) Hash() uint64 { return e.Runtime.Hash() }

// ShardWorld returns shard i's world for inspection.
func (e *ShardedEngine) ShardWorld(i int) *world.World { return e.Runtime.ShardWorld(i) }

// Close stops the shard goroutines.
func (e *ShardedEngine) Close() { e.Runtime.Close() }
