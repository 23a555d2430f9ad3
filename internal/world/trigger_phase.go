package world

// The effect-aware trigger drain: the state-effect pattern extended
// through the trigger phase. Each cascade round runs as its own mini
// tick —
//
//	match:  the engine pairs the round's queued events with registered
//	        rules in deterministic (event order, firing order) source
//	        order, executing nothing;
//	cond:   conditions evaluate in parallel as read-only queries over
//	        the round-start state (anything a condition emits is rolled
//	        back — conditions are queries);
//	resolve: one serial pass in source order consumes Once rules,
//	        counts activations, and runs host-registered Go rules
//	        directly (their actions cannot emit effects);
//	act:    the firing GSL actions fan across the Workers pool, each
//	        invocation atomic in its worker's EffectBuffer, keyed by a
//	        deterministic per-round source id;
//	apply:  one deterministic merge applies the round's effects and
//	        queues the events they posted, which form the next round.
//
// Because conditions read only frozen state and the apply order is
// keyed by (event seq, rule seq) — never by worker — the same seed
// yields an identical world for any Shards × Workers combination, and
// trigger-heavy cascades batch and parallelize exactly like behaviors.

import (
	"errors"
	"fmt"
	"time"

	"gamedb/internal/entity"
	"gamedb/internal/obs"
	"gamedb/internal/script"
	"gamedb/internal/trigger"
)

// boundTrigger is a content-pack rule's compiled programs plus its
// per-worker effect-mode interpreter clones. Clones grow lazily (on the
// coordinating goroutine) to the tick's worker count; each binds the
// matching worker's effect buffer, so clone wi may only ever run on
// worker slot wi.
type boundTrigger struct {
	name string
	cond *script.Program // nil = unconditional
	act  *script.Program

	condIns []*script.Interp
	actIns  []*script.Interp

	// prof is the rule's "trigger/<name>" profile entry, resolved once
	// when clones first grow (nil with profiling off — every use is
	// nil-safe). Caching it here keeps the act fan-out free of profiler
	// map lookups.
	prof *obs.ProfEntry
}

// triggerRoundStride separates the per-round source-id ranges of the
// trigger phase. A match's source id is (round+1)*stride + matchIndex:
// within a round the merge order reproduces (event seq, rule seq), and
// across rounds the per-invocation rand streams differ. maxSpawnsPerCall
// × the largest practical source id stays far below provBase.
const triggerRoundStride entity.ID = 1 << 20

// triggerSrc keys one trigger match's effect stream and rand stream.
func triggerSrc(round, mi int) entity.ID {
	return entity.ID(round+1)*triggerRoundStride + entity.ID(mi)
}

// ensureTriggerClones grows one bound rule's interpreter clones to n
// workers. Runs on the coordinating goroutine before any fan-out; the
// worker buffers must already exist (ensureWorkers). Creation is
// demand-driven — only rules actually matched in a round grow clones,
// so dead (Once-consumed, unregistered) rules never allocate.
func (w *World) ensureTriggerClones(bt *boundTrigger, n int) {
	if w.prof != nil && bt.prof == nil {
		bt.prof = w.prof.Entry("trigger/" + bt.name)
	}
	for len(bt.actIns) < n {
		wi := len(bt.actIns)
		bt.actIns = append(bt.actIns, script.NewInterp(bt.act, script.Options{
			Fuel:     w.cfg.ScriptFuel,
			Builtins: w.effectBuiltins(w.workerBufs[wi]),
		}))
	}
	if bt.cond == nil {
		return
	}
	for len(bt.condIns) < n {
		wi := len(bt.condIns)
		bt.condIns = append(bt.condIns, script.NewInterp(bt.cond, script.Options{
			Fuel:     w.cfg.ScriptFuel,
			Builtins: w.effectBuiltins(w.workerBufs[wi]),
		}))
	}
}

// drainTriggers runs the tick's trigger phase: it loops effect-mode
// rounds until the queue is empty or the cascade limit trips (the
// remaining events are dropped and counted, and the engine stays
// usable). The test-only direct reference (refPaths.directTriggers) is
// the engine's serial Drain instead.
func (w *World) drainTriggers(st *TickStats) error {
	if w.ref.directTriggers {
		fired, err := w.trig.Drain()
		st.TriggerFired += fired
		return err
	}
	workers := w.cfg.Workers
	if workers <= 0 {
		workers = 1
	}
	w.ensureWorkers(workers)

	var errs []error
	for round := 0; ; round++ {
		// Round batch and match buffers are world scratch the engine
		// refills, so popping and matching a round allocates nothing in
		// steady state.
		batch := w.trig.TakeRound(w.trigEvBuf)
		w.trigEvBuf = batch
		if len(batch) == 0 {
			break
		}
		if round >= w.trig.MaxCascade() {
			w.trig.NoteDropped(len(batch))
			errs = append(errs, fmt.Errorf("%w: %d queued events dropped",
				trigger.ErrCascadeDepth, len(batch)))
			break
		}
		st.TriggerRounds++
		matches := w.trig.MatchRound(w.trigMatchBuf, batch)
		w.trigMatchBuf = matches
		if len(matches) == 0 {
			continue
		}
		if len(matches) >= int(triggerRoundStride) {
			errs = append(errs, fmt.Errorf(
				"world: trigger round %d has %d matches (max %d)",
				round, len(matches), triggerRoundStride-1))
			break
		}
		errs = append(errs, w.runTriggerRound(round, matches, workers, st)...)
	}
	return errors.Join(errs...)
}

// condResult is one match's condition outcome from the parallel pass.
type condResult struct {
	ok   bool
	skip bool // fuel exhaustion: a skipped query, not an error
	err  error
}

// runTriggerRound executes one cascade round's matches through the
// cond / resolve / act / apply pipeline, appending per-rule errors
// (the round always completes).
func (w *World) runTriggerRound(round int, matches []trigger.Match, workers int, st *TickStats) []error {
	roundStart := time.Now()
	// The round starts from applied state; whatever the buffers held
	// has already been merged.
	bufs := w.workerBufs[:workers]
	for _, buf := range bufs {
		buf.reset()
	}
	for _, m := range matches {
		if bt := w.trigBound[m.Rule]; bt != nil {
			w.ensureTriggerClones(bt, workers)
		}
	}

	// Cond: parallel read-only queries over the round-start state.
	// Each match index is written by exactly one worker. The result and
	// fuel buffers are World scratch reused across rounds.
	conds := w.condsBuf[:0]
	for range matches {
		conds = append(conds, condResult{})
	}
	w.condsBuf = conds
	fuels := w.fuelsBuf[:0]
	for i := 0; i < workers; i++ {
		fuels = append(fuels, 0)
	}
	w.fuelsBuf = fuels
	w.fanOut(workers, len(matches), func(wi, lo, hi int) {
		buf := w.workerBufs[wi]
		for mi := lo; mi < hi; mi++ {
			m := matches[mi]
			bt := w.trigBound[m.Rule]
			if bt == nil {
				continue // host Go rule: resolved serially below
			}
			if bt.cond == nil {
				conds[mi].ok = true
				continue
			}
			in := bt.condIns[wi]
			mark := buf.begin(triggerSrc(round, mi))
			// Conditions contribute sampled wall time to the rule's
			// profile (they are queries — effects roll back, so the
			// exact counters come from the act pass alone).
			tSample, sampling := bt.prof.BeginSample()
			v, err := in.Call("cond",
				script.Int(int64(m.Ev.Entity)), script.FromEntity(m.Ev.Field("amount")))
			bt.prof.EndSample(tSample, sampling)
			buf.rollback(mark) // conditions are queries: discard any emission
			fuels[wi] += in.FuelUsed()
			if err != nil {
				if isFuelErr(err) {
					conds[mi].skip = true
				} else {
					conds[mi].err = fmt.Errorf("trigger: rule %q condition: %w", bt.name, err)
				}
				continue
			}
			b, okB := v.AsBool()
			if !okB {
				conds[mi].err = fmt.Errorf("trigger %q condition returned %s", bt.name, v.Kind())
				continue
			}
			conds[mi].ok = b
		}
	})

	// Resolve: serial, in source order. Consumes Once rules (first
	// passing match in source order wins), counts activations, and runs
	// direct (host Go) rules immediately — their writes land before the
	// round's effect apply and are visible to later direct rules, the
	// serial-engine contract they were registered under.
	var errs []error
	fires := w.firesBuf[:0]
	for mi, m := range matches {
		bt := w.trigBound[m.Rule]
		if bt == nil {
			if !w.trig.Alive(m) {
				continue
			}
			if m.Rule.Cond != nil {
				ok, err := m.Rule.Cond(m.Ev)
				if err != nil {
					st.TriggerErrors++
					errs = append(errs, fmt.Errorf("trigger: rule %q condition: %w", m.Rule.Name, err))
					continue
				}
				if !ok {
					continue
				}
			}
			if !w.trig.Activate(m) {
				continue
			}
			st.TriggerFired++
			if err := m.Rule.Action(m.Ev); err != nil {
				st.TriggerErrors++
				errs = append(errs, fmt.Errorf("trigger: rule %q action: %w", m.Rule.Name, err))
			}
			continue
		}
		// A Once rule consumed earlier in this round (or a rule a direct
		// action just unregistered) is dead: serial execution would
		// never have evaluated its condition, so its speculative cond
		// outcome — including an error or fuel skip — is discarded, not
		// counted.
		if !w.trig.Alive(m) {
			continue
		}
		res := conds[mi]
		if res.skip {
			st.TriggerSkips++
			continue
		}
		if res.err != nil {
			st.TriggerErrors++
			errs = append(errs, res.err)
			continue
		}
		if !res.ok {
			continue
		}
		if !w.trig.Activate(m) {
			continue
		}
		st.TriggerFired++
		fires = append(fires, mi)
	}

	w.firesBuf = fires

	// Act: the firing GSL actions fan across the workers, each
	// invocation atomic in its worker's buffer, keyed by the match's
	// deterministic source id — the partitioning never shows.
	actErrs := w.actErrBuf[:0]
	actSkip := w.actSkipBuf[:0]
	for range fires {
		actErrs = append(actErrs, nil)
		actSkip = append(actSkip, false)
	}
	w.actErrBuf, w.actSkipBuf = actErrs, actSkip
	w.fanOut(workers, len(fires), func(wi, lo, hi int) {
		buf := w.workerBufs[wi]
		for fi := lo; fi < hi; fi++ {
			mi := fires[fi]
			m := matches[mi]
			bt := w.trigBound[m.Rule]
			in := bt.actIns[wi]
			reads0 := len(buf.reads)
			mark := buf.begin(triggerSrc(round, mi))
			tSample, sampling := bt.prof.BeginSample()
			_, err := in.Call("act",
				script.Int(int64(m.Ev.Entity)), script.FromEntity(m.Ev.Field("amount")))
			bt.prof.EndSample(tSample, sampling)
			fuels[wi] += in.FuelUsed()
			if err != nil {
				buf.rollback(mark)
				if isFuelErr(err) {
					actSkip[fi] = true
				} else {
					actErrs[fi] = fmt.Errorf("trigger: rule %q action: %w", bt.name, err)
				}
			}
			if bt.prof != nil {
				// Counted after rollback handling, like runWorker.
				bt.prof.AddCall(in.FuelUsed(), int64(len(buf.effects)-mark), int64(len(buf.reads)-reads0))
				if err != nil {
					if isFuelErr(err) {
						bt.prof.AddSkip()
					} else {
						bt.prof.AddError()
					}
				}
			}
		}
	})
	for fi := range fires {
		if actSkip[fi] {
			st.TriggerSkips++
		}
		if actErrs[fi] != nil {
			st.TriggerErrors++
			errs = append(errs, actErrs[fi])
		}
	}
	for _, f := range fuels {
		st.FuelUsed += f
	}

	// Apply: one deterministic merge ends the round; the events it
	// posts become the next round's batch. Under the OCC conflict
	// policy, losing trigger actions that read cells the winning set
	// wrote re-run on worker slot 0's clones, looked up by the match's
	// deterministic source id.
	if w.prof != nil {
		// Round sources map back to their rule for conflict / retry /
		// abort attribution, by the same arithmetic the OCC re-run uses.
		base := entity.ID(round+1) * triggerRoundStride
		w.profOf = func(src entity.ID) *obs.ProfEntry {
			mi := int(src - base)
			if mi >= 0 && mi < len(matches) {
				if bt := w.trigBound[matches[mi].Rule]; bt != nil {
					return bt.prof
				}
			}
			return w.otherProf
		}
	}
	if w.occEnabled() {
		rerun := func(src entity.ID) (int64, error) {
			mi := int(src - entity.ID(round+1)*triggerRoundStride)
			if mi < 0 || mi >= len(matches) {
				return 0, fmt.Errorf("world: re-run source %d outside trigger round %d", src, round)
			}
			m := matches[mi]
			bt := w.trigBound[m.Rule]
			if bt == nil {
				// Host Go rules run direct — their writes are never
				// effects, so they can never lose a merge; defensive.
				return 0, fmt.Errorf("world: host rule %q cannot re-run", m.Rule.Name)
			}
			in := bt.actIns[0]
			_, err := in.Call("act",
				script.Int(int64(m.Ev.Entity)), script.FromEntity(m.Ev.Field("amount")))
			return in.FuelUsed(), err
		}
		w.applyEffectsOCC(bufs, &st.TriggerEffects, &st.TriggerConflicts, st, rerun)
	} else {
		w.applyEffects(bufs, &st.TriggerEffects, &st.TriggerConflicts)
	}
	w.profOf = nil
	w.trace.Span(obs.SpanTrigRnd, w.tick, round, roundStart)
	return errs
}

// fanOut chunks n items contiguously across the shared worker pool and
// runs fn per worker slot, inline when workers is 1 (the same
// partitioning idiom as the query phase, so a match's worker-slot
// assignment is stable for a given worker count — though nothing
// downstream depends on it). Slot wi always owns chunk wi regardless of
// which pool goroutine executes it, so per-slot buffers stay exclusive.
func (w *World) fanOut(workers, n int, fn func(wi, lo, hi int)) {
	if n == 0 {
		return
	}
	if workers == 1 {
		fn(0, 0, n)
		return
	}
	w.pool.Par(workers, func(wi int) {
		lo, hi := chunkRange(n, workers, wi)
		if lo < hi {
			fn(wi, lo, hi)
		}
	})
}
