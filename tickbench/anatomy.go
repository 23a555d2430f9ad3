package main

import (
	"math"
	"sort"

	"gamedb/internal/obs"
	"gamedb/internal/shard"
	"gamedb/internal/world"
)

// tickRec is one measured server tick: its wall time and what each
// layer reported for it.
type tickRec struct {
	wallNS   int64
	entities int

	// World tick pipeline, summed over shard worlds.
	queryNS, applyNS, triggerNS int64
	effects, conflicts          int
	trigRounds, trigFired       int
	retries, aborts             int
	calls, attempted, failed    int
	// Shard runtime and barrier (slowest shard's timings).
	stepNS, parallelNS, barrierNS, reconcileNS int64
	forwarded, merged, invalidated             int
	ghostShips, ghostSnaps, ghosts, handoffs   int
	wireBytes, wireFrames                      int64
	// Client fan-out.
	pumpNS, flushNS                        int64
	msgs, bytes, fanSnaps, drops, degrades int64
}

func (r *tickRec) addWorld(st world.TickStats) {
	r.queryNS += st.QueryNS
	r.applyNS += st.ApplyNS
	r.triggerNS += st.TriggerNS
	r.effects += st.Effects + st.TriggerEffects
	r.conflicts += st.EffectConflicts + st.TriggerConflicts
	r.trigRounds += st.TriggerRounds
	r.trigFired += st.TriggerFired
	r.retries += st.EffectRetries
	r.aborts += st.EffectAborts
	r.calls += st.ScriptCalls
	r.attempted += st.ScriptCalls + st.TriggerFired
	r.failed += st.ScriptErrors + st.ScriptSkips + st.TriggerErrors + st.TriggerSkips + st.EffectAborts
}

func (r *tickRec) addStep(st shard.StepStats) {
	for _, ws := range st.Shards {
		r.addWorld(ws)
	}
	r.entities = st.Entities
	r.stepNS = st.ParallelNS + st.BarrierNS
	r.parallelNS, r.barrierNS, r.reconcileNS = st.ParallelNS, st.BarrierNS, st.ReconcileNS
	r.forwarded, r.merged, r.invalidated = st.EffectsForwarded, st.EffectsRemoteMerged, st.RemoteInvalidations
	r.ghostShips, r.ghostSnaps, r.ghosts, r.handoffs = st.GhostShips, st.GhostSnapshots, st.Ghosts, st.Handoffs
	r.wireBytes, r.wireFrames = st.WireBytesOut, st.WireFrames
}

// layerMetric is one per-layer figure derived from tick records:
// a mean per tick of a count or a time (ms).
type layerMetric struct {
	name string
	unit string
	get  func(r *tickRec) float64
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

var layerMetrics = []layerMetric{
	{"world.query_ms", "ms", func(r *tickRec) float64 { return ms(r.queryNS) }},
	{"world.apply_ms", "ms", func(r *tickRec) float64 { return ms(r.applyNS) }},
	{"world.trigger_ms", "ms", func(r *tickRec) float64 { return ms(r.triggerNS) }},
	{"world.effects", "count", func(r *tickRec) float64 { return float64(r.effects) }},
	{"world.effect_conflicts", "count", func(r *tickRec) float64 { return float64(r.conflicts) }},
	{"world.trigger_rounds", "count", func(r *tickRec) float64 { return float64(r.trigRounds) }},
	{"world.trigger_fired", "count", func(r *tickRec) float64 { return float64(r.trigFired) }},
	{"txn.occ_retries", "count", func(r *tickRec) float64 { return float64(r.retries) }},
	{"txn.occ_aborts", "count", func(r *tickRec) float64 { return float64(r.aborts) }},
	{"shard.step_ms", "ms", func(r *tickRec) float64 { return ms(r.stepNS) }},
	{"shard.parallel_ms", "ms", func(r *tickRec) float64 { return ms(r.parallelNS) }},
	{"shard.barrier_ms", "ms", func(r *tickRec) float64 { return ms(r.barrierNS) }},
	{"shard.reconcile_ms", "ms", func(r *tickRec) float64 { return ms(r.reconcileNS) }},
	{"shard.effects_forwarded", "count", func(r *tickRec) float64 { return float64(r.forwarded) }},
	{"shard.effects_remote_merged", "count", func(r *tickRec) float64 { return float64(r.merged) }},
	{"shard.remote_invalidations", "count", func(r *tickRec) float64 { return float64(r.invalidated) }},
	{"shard.ghost_ships", "count", func(r *tickRec) float64 { return float64(r.ghostShips) }},
	{"shard.ghost_snapshots", "count", func(r *tickRec) float64 { return float64(r.ghostSnaps) }},
	{"shard.ghosts", "count", func(r *tickRec) float64 { return float64(r.ghosts) }},
	{"shard.handoffs", "count", func(r *tickRec) float64 { return float64(r.handoffs) }},
	{"wire.bytes_out", "bytes", func(r *tickRec) float64 { return float64(r.wireBytes) }},
	{"wire.frames", "count", func(r *tickRec) float64 { return float64(r.wireFrames) }},
	{"replica.pump_ms", "ms", func(r *tickRec) float64 { return ms(r.pumpNS) }},
	{"replica.flush_ms", "ms", func(r *tickRec) float64 { return ms(r.flushNS) }},
	{"replica.msgs", "count", func(r *tickRec) float64 { return float64(r.msgs) }},
	{"replica.bytes", "bytes", func(r *tickRec) float64 { return float64(r.bytes) }},
	{"replica.snapshots", "count", func(r *tickRec) float64 { return float64(r.fanSnaps) }},
	{"replica.drops", "count", func(r *tickRec) float64 { return float64(r.drops) }},
	{"replica.degrades", "count", func(r *tickRec) float64 { return float64(r.degrades) }},
}

// meanOf averages one layer metric over recs.
func meanOf(recs []tickRec, get func(r *tickRec) float64) float64 {
	if len(recs) == 0 {
		return 0
	}
	return sumOf(recs, get) / float64(len(recs))
}

func sumOf(recs []tickRec, get func(r *tickRec) float64) float64 {
	s := 0.0
	for i := range recs {
		s += get(&recs[i])
	}
	return s
}

// quantile is the linear-interpolated q-quantile of xs (sorted copy).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := q * float64(len(s)-1)
	lo, hi := int(math.Floor(idx)), int(math.Ceil(idx))
	return s[lo] + (s[hi]-s[lo])*(idx-float64(lo))
}

// quartiles returns (q1, median, q3) of xs.
func quartiles(xs []float64) [3]float64 {
	return [3]float64{quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75)}
}

// spanSelfNS sums each span name's self time over the spans whose tick
// lies in [1, ticks]: a span's duration minus the union of the
// intervals its direct children cover, where a child is a later span
// of the same context (shard) lying wholly inside it. Spans recorded
// concurrently that only partly overlap are not children.
func spanSelfNS(spans []obs.Span, ticks int64) map[string]int64 {
	byShard := map[int][]obs.Span{}
	for _, s := range spans {
		if s.Tick >= 1 && s.Tick <= ticks {
			byShard[s.Shard] = append(byShard[s.Shard], s)
		}
	}
	self := map[string]int64{}
	for _, ss := range byShard {
		sort.SliceStable(ss, func(i, j int) bool {
			if ss[i].Start != ss[j].Start {
				return ss[i].Start < ss[j].Start
			}
			return ss[i].Dur > ss[j].Dur
		})
		children := make([][]int, len(ss))
		var stack []int
		for i, s := range ss {
			for len(stack) > 0 && ss[stack[len(stack)-1]].End() <= s.Start {
				stack = stack[:len(stack)-1]
			}
			for j := len(stack) - 1; j >= 0; j-- {
				p := ss[stack[j]]
				if p.Start <= s.Start && s.End() <= p.End() {
					children[stack[j]] = append(children[stack[j]], i)
					break
				}
			}
			stack = append(stack, i)
		}
		for i, s := range ss {
			covered, reach := int64(0), s.Start
			for _, c := range children[i] {
				cs, ce := max(ss[c].Start, reach), ss[c].End()
				if ce > cs {
					covered += ce - cs
					reach = ce
				}
			}
			self[s.Name] += s.Dur - covered
		}
	}
	return self
}
