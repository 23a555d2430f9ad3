package world

import "gamedb/internal/entity"

// Test hooks that switch one world's tick stages onto the reference
// implementations the equivalence tests pin the production paths
// against. They exist only in test builds. External world_test tests
// apply them to shard worlds through Runtime.ShardWorld; a hook takes
// effect from the world's next Step.

// UseRowAssign replaces the columnar assignment and delta passes with
// applyAssignRows.
func UseRowAssign(w *World) { w.ref.assignRows = (*World).applyAssignRows }

// UseDirectDrain drains triggers through the engine's serial Drain:
// one rule at a time, each action's writes visible to the next.
func UseDirectDrain(w *World) { w.ref.directTriggers = true }

// UseInterpreter runs every behavior on the interpreter, leaving the
// compiled plans unused.
func UseInterpreter(w *World) { w.ref.interpret = true }

// applyAssignRows is the row-at-a-time reference for the assignment and
// delta passes: every record goes through world.Set's table-lookup →
// column-lookup → change-notification chain, and the spatial index
// follows one Move per position write. The columnar passes must match
// it bit-for-bit.
func (w *World) applyAssignRows(merged []Effect, resolve func(entity.ID) (entity.ID, bool), conflicts *int) {
	// Assignments, in sorted order: last write wins.
	for i := range merged {
		e := &merged[i]
		if e.Kind != EffectSet {
			continue
		}
		id, ok := resolve(e.Target)
		if !ok {
			*conflicts++
			w.noteConflict(e.Src)
			continue
		}
		if err := w.Set(id, e.Col, e.Val); err != nil {
			*conflicts++
			w.noteConflict(e.Src)
		}
	}

	// Additive deltas, summed over the post-assignment value.
	for i := range merged {
		e := &merged[i]
		if e.Kind != EffectAdd {
			continue
		}
		id, ok := resolve(e.Target)
		if !ok {
			*conflicts++
			w.noteConflict(e.Src)
			continue
		}
		cur, err := w.Get(id, e.Col)
		if err != nil {
			*conflicts++
			w.noteConflict(e.Src)
			continue
		}
		var next entity.Value
		switch cur.Kind() {
		case entity.KindInt:
			d, okI := e.Val.AsInt()
			if !okI {
				*conflicts++
				w.noteConflict(e.Src)
				continue
			}
			next = entity.Int(cur.Int() + d)
		case entity.KindFloat:
			d, okF := e.Val.AsFloat()
			if !okF {
				*conflicts++
				w.noteConflict(e.Src)
				continue
			}
			next = entity.Float(cur.Float() + d)
		default:
			*conflicts++
			w.noteConflict(e.Src)
			continue
		}
		if err := w.Set(id, e.Col, next); err != nil {
			*conflicts++
			w.noteConflict(e.Src)
		}
	}
}
