// Command tickbench is the repository's tick-anatomy benchmark. It
// drives one of three fixed workloads through the public shard, world,
// replica and content APIs, in one process, with ticks run back to back
// (a closed loop: the next tick starts when the last one finishes):
//
//	border-tcp      border-write crowd on 2 wire peers over loopback TCP
//	cascade-fanout  trigger-cascade crowd on a 2-shard runtime feeding
//	                10,000 fan-out clients
//	conflict-occ    contended beacon claims on one 2-worker world under OCC
//
// A run sets the workload up, runs fixed-length episodes until
// -seconds have passed (at least one), checks that every episode's
// checkpoint hashes agree with each other, with earlier runs of the same
// seed, and with a 1-shard, 1-worker, in-process reference, and prints
// every metric with its unit. The last stdout line is one JSON result.
// With -trace 0 it carries the end-to-end metrics; with -trace 1 the run
// alternates untraced and traced episodes (an obs.Tracer attached
// through the workload's config) and it carries the per-layer anatomy.
//
// Build and run from the repository root:
//
//	bash tickbench/run.sh --workload border-tcp --seed 2009 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"

	"gamedb/internal/obs"
)

// checkEvery is the hash checkpoint interval: a divergence from the
// reference is located to a window of this many ticks.
const checkEvery = 25

// minSetups is the fewest set-ups a run times; setup_s is their median.
const minSetups = 15

// episode is one set-up plus one fixed-length run of ticks.
type episode struct {
	traced bool
	setup  setupTimes
	recs   []tickRec
	sums   []uint64 // checkpoint hashes
	// Go allocator totals over the measured ticks, hash checkpoints
	// excluded.
	allocs, allocBytes, gcPauseNS uint64
	// quarterAllocs holds the allocations of the first and last quarter
	// of the ticks.
	quarterAllocs [2]uint64
	spans         map[string]int64 // self ns per span name (traced only)
	staleP99      float64
	liveHeapMB    float64 // live heap after the last tick
	peakRSSMB     float64 // peak resident set during the episode
	// tickErr is the Step error that ended the episode early; its
	// tick's invocations count as failed.
	tickErr error
}

func main() {
	name := flag.String("workload", "", "workload: border-tcp | cascade-fanout | conflict-occ")
	seed := flag.Int64("seed", 2009, "workload seed")
	seconds := flag.Int("seconds", 10, "measurement time in seconds (at least one episode runs)")
	trace := flag.Int("trace", 0, "0: report end-to-end metrics; 1: report the per-layer anatomy from an extra traced run")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "tickbench: need --workload (border-tcp|cascade-fanout|conflict-occ), --seconds ≥ 1 and --trace 0|1\n")
		os.Exit(2)
	}
	if err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintf(os.Stderr, "tickbench: %v\n", err)
		os.Exit(1)
	}
}

func run(w workload, seed int64, budget time.Duration, traced bool) error {
	runtime.GOMAXPROCS(runtime.NumCPU())
	src, err := sourceDigest()
	if err != nil {
		return err
	}
	hist := loadHistory()

	// Measure: as many episodes as fit the budget at the workload's
	// nominal episode length — a count fixed by the budget, not by how
	// fast this run goes. In trace mode they alternate untraced, traced.
	n := max(1, int(math.Round(budget.Seconds()/w.episodeSeconds)))
	if traced {
		n = max(2, n)
	}
	var eps []episode
	for len(eps) < n {
		ep, err := runEpisode(w, seed, traced && len(eps)%2 == 1)
		if err != nil {
			return fmt.Errorf("%s episode %d: %w", w.name, len(eps)+1, err)
		}
		eps = append(eps, ep)
		if ep.tickErr != nil {
			break
		}
	}
	var setups []float64
	for _, ep := range eps {
		setups = append(setups, float64(ep.setup.totalNS)/1e9)
	}
	extraSetups := make([]setupTimes, 0, minSetups)
	for len(setups) < minSetups {
		ts, err := setupOnly(w, seed)
		if err != nil {
			return err
		}
		extraSetups = append(extraSetups, ts)
		setups = append(setups, float64(ts.totalNS)/1e9)
	}

	// Correctness: every episode agrees, earlier runs of this seed
	// agree, and the 1-shard reference agrees (or shows a known defect).
	check := hashCheck{Ticks: w.ticks, Every: checkEvery, Sums: hexSums(eps[0].sums)}
	correct := true
	for i, ep := range eps {
		if ep.tickErr != nil {
			correct = false
			check.Problems = append(check.Problems, fmt.Sprintf("episode %d: %v", i+1, ep.tickErr))
		}
	}
	for i, ep := range eps[1:] {
		if !slices.Equal(ep.sums, eps[0].sums) {
			correct = false
			check.Problems = append(check.Problems, fmt.Sprintf("episode %d (traced=%v) hashes differ from episode 1", i+2, ep.traced))
		}
	}
	key := historyKey{Workload: w.name, Seed: seed, Ticks: w.ticks, Source: src}
	for _, h := range hist.matching(key) {
		if !slices.Equal(h.Sums, check.Sums) {
			correct = false
			check.Problems = append(check.Problems, "hashes differ from an earlier run of this seed")
			break
		}
	}
	ref := hist.reference(key)
	if ref == nil {
		sums, err := w.reference(seed, w.ticks, eps[0].sums)
		if err != nil {
			return fmt.Errorf("%s reference: %w", w.name, err)
		}
		ref = hexSums(sums)
	}
	check.Reference = ref
	if div := firstDivergence(check.Sums, ref, w.ticks); div != "" {
		check.Diverged = div
		if w.knownDefect != "" {
			check.KnownDefect = w.knownDefect
			fmt.Printf("KNOWN DEFECT %s: hashes differ from the 1-shard reference, %s — %s\n", w.name, div, w.knownDefect)
		} else {
			correct = false
			check.Problems = append(check.Problems, "differs from the 1-shard, 1-worker reference, "+div)
		}
	} else if w.knownDefect != "" {
		fmt.Printf("note %s: the known defect does not show on this seed and length: %s\n", w.name, w.knownDefect)
	}
	for _, p := range check.Problems {
		fmt.Printf("HASH CHECK FAILED %s: %s\n", w.name, p)
	}

	var untraced, tracedEps []episode
	for _, ep := range eps {
		if ep.traced {
			tracedEps = append(tracedEps, ep)
		} else {
			untraced = append(untraced, ep)
		}
	}
	e2e := endToEnd(untraced, setups)
	layers := perLayer(untraced, tracedEps, append(episodeSetups(eps), extraSetups...))
	attempted, failed := 0, 0
	for _, ep := range eps {
		for i := range ep.recs {
			attempted += ep.recs[i].attempted
			failed += ep.recs[i].failed
		}
	}
	if attempted == 0 {
		attempted = 1 // a workload always attempts its ticks
	}

	if eps[len(eps)-1].tickErr == nil {
		hist.add(historyEntry{historyKey: key, Traced: traced, Sums: check.Sums, Reference: ref, Metrics: valuesOf(e2e)})
		if err := hist.save(); err != nil {
			fmt.Fprintf(os.Stderr, "tickbench: history not saved: %v\n", err)
		}
	}

	// Report: every metric by name and unit, then the labelled record,
	// then the result line.
	rec := labels(w, seed, src, eps, len(setups))
	rec.Hash = check
	rec.SetupQuartiles = quartiles(setups)
	rec.TickMSQuartiles = quartiles(minTickMS(untraced))
	for _, ep := range eps {
		var xs []float64
		for _, r := range ep.recs {
			xs = append(xs, ms(r.wallNS))
		}
		rec.EpisodeTickP50 = append(rec.EpisodeTickP50, quantile(xs, 0.5))
		rec.EpisodePeakRSS = append(rec.EpisodePeakRSS, ep.peakRSSMB)
	}
	rec.RunToRun, rec.RunToRunRuns = hist.runToRun(w.name, src)
	rec.Drift = drift(untraced[0])
	rec.Spans = allSpansMS(tracedEps)
	for _, m := range e2e {
		fmt.Printf("%-16s %-34s %14.4f %s\n", w.name, m.name, m.value, m.unit)
	}
	for _, m := range layers {
		fmt.Printf("%-16s %-34s %14.4f %s\n", w.name, m.name, m.value, m.unit)
	}
	recJSON, err := json.Marshal(map[string]any{"record": rec})
	if err != nil {
		return err
	}
	fmt.Println(string(recJSON))

	out := e2e
	if traced {
		out = layers
	}
	metrics := map[string]any{}
	for _, m := range out {
		metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	res, err := json.Marshal(map[string]any{"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(res))
	return nil
}

// runEpisode sets w up and runs its ticks, timing each one.
func runEpisode(w workload, seed int64, traced bool) (episode, error) {
	ep := episode{traced: traced}
	settle()
	if err := resetPeakRSS(); err != nil {
		return ep, err
	}
	var tr *obs.Tracer
	if traced {
		// Room for every span of the run: nothing is overwritten.
		tr = obs.NewTracer(64*w.ticks + 4096)
	}
	srv, ts, err := w.setup(seed, tr)
	if err != nil {
		return ep, fmt.Errorf("setup: %w", err)
	}
	defer srv.close()
	ep.setup = ts
	ep.recs = make([]tickRec, 0, w.ticks)
	// Allocation marks at ticks 0, q, ticks−q and ticks, net of the
	// hash checkpoints, give the first and last quarter's allocations.
	q := w.ticks / 4
	var m0, m1, h0, h1 runtime.MemStats
	var hashAllocs, hashBytes, hashPause uint64
	var marks []uint64
	runtime.ReadMemStats(&m0)
	marks = append(marks, m0.Mallocs)
	for i := 1; i <= w.ticks; i++ {
		var rec tickRec
		t0 := time.Now()
		err := srv.tick(&rec)
		rec.wallNS = time.Since(t0).Nanoseconds()
		if err != nil {
			rec.failed = max(rec.attempted, 1)
			ep.recs = append(ep.recs, rec)
			ep.tickErr = fmt.Errorf("tick %d: %w", i, err)
			return ep, nil
		}
		ep.recs = append(ep.recs, rec)
		if i == q || i == w.ticks-q || i == w.ticks {
			runtime.ReadMemStats(&h0)
			marks = append(marks, h0.Mallocs-hashAllocs)
		}
		if isCheckpoint(i, w.ticks) {
			runtime.ReadMemStats(&h0)
			h, err := srv.hash()
			if err != nil {
				return ep, fmt.Errorf("hash at tick %d: %w", i, err)
			}
			ep.sums = append(ep.sums, h)
			runtime.ReadMemStats(&h1)
			hashAllocs += h1.Mallocs - h0.Mallocs
			hashBytes += h1.TotalAlloc - h0.TotalAlloc
			hashPause += h1.PauseTotalNs - h0.PauseTotalNs
		}
	}
	runtime.ReadMemStats(&m1)
	ep.quarterAllocs = [2]uint64{marks[1] - marks[0], marks[3] - marks[2]}
	ep.allocs = m1.Mallocs - m0.Mallocs - hashAllocs
	ep.allocBytes = m1.TotalAlloc - m0.TotalAlloc - hashBytes
	ep.gcPauseNS = m1.PauseTotalNs - m0.PauseTotalNs - hashPause
	if ep.peakRSSMB, err = peakRSSMB(); err != nil {
		return ep, err
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	ep.liveHeapMB = float64(m1.HeapAlloc) / (1 << 20)
	if cs, ok := srv.(*cascadeServer); ok {
		ep.staleP99 = cs.stalenessP99()
	}
	if traced {
		ep.spans = spanSelfNS(tr.Spans(), int64(w.ticks))
	}
	return ep, nil
}

// setupOnly times one more set-up of w and tears it down.
func setupOnly(w workload, seed int64) (setupTimes, error) {
	settle()
	srv, ts, err := w.setup(seed, nil)
	if err != nil {
		return ts, fmt.Errorf("%s setup: %w", w.name, err)
	}
	srv.close()
	return ts, nil
}

// settle returns the previous episode's garbage to the OS, so every
// episode starts from the same heap.
func settle() {
	debug.FreeOSMemory()
}

type metric struct {
	name  string
	value float64
	unit  string
}

func allRecs(eps []episode) []tickRec {
	var recs []tickRec
	for _, ep := range eps {
		recs = append(recs, ep.recs...)
	}
	return recs
}

// endToEnd derives the metrics a user of the server sees from the
// untraced episodes. Every episode of a run replays the same inputs, so
// tick i does the same work in each: a tick's time is its minimum over
// the episodes, which drops the time other processes on the host took
// from it. Percentiles are then taken over the tick indices.
func endToEnd(eps []episode, setups []float64) []metric {
	ticks := minTickMS(eps)
	wall, ents := 0.0, 0.0
	for i, t := range ticks {
		wall += t / 1e3
		ents += float64(eps[0].recs[i].entities)
	}
	var rss []float64
	for _, ep := range eps {
		rss = append(rss, ep.peakRSSMB)
	}
	return []metric{
		{"entity_ticks_per_s", ents / wall, "1/s"},
		{"tick_p50_ms", quantile(ticks, 0.5), "ms"},
		{"tick_p90_ms", quantile(ticks, 0.9), "ms"},
		{"setup_s", quantile(setups, 0.5), "s"},
		{"peak_rss_mb", quantile(rss, 0.5), "MB"},
	}
}

// minTickMS is each tick index's minimum wall time (ms) over eps,
// up to the shortest episode.
func minTickMS(eps []episode) []float64 {
	n := len(eps[0].recs)
	for _, ep := range eps {
		n = min(n, len(ep.recs))
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Inf(1)
		for _, ep := range eps {
			out[i] = math.Min(out[i], ms(ep.recs[i].wallNS))
		}
	}
	return out
}

func episodeSetups(eps []episode) []setupTimes {
	var ts []setupTimes
	for _, ep := range eps {
		ts = append(ts, ep.setup)
	}
	return ts
}

// spanMetrics are the span names reported as per-layer metrics; any
// other span a traced run records is listed in the record.
var spanMetrics = []string{
	obs.SpanTick, obs.SpanQuery, obs.SpanApply, obs.SpanTrigger, obs.SpanTrigRnd, obs.SpanOCCRetry,
	obs.SpanParallel, obs.SpanBarrier, obs.SpanForward, obs.SpanRemoteMerge, obs.SpanReconcile,
	obs.SpanWire, obs.SpanWireRecv, "replica.pump", "replica.flush",
}

// perLayer derives the anatomy: per-tick means of what each layer
// reported in the untraced episodes, Go allocator totals, set-up
// phases, span self times from the traced episodes and the tracing
// overhead.
func perLayer(untraced, traced []episode, setups []setupTimes) []metric {
	recs := allRecs(untraced)
	var out []metric
	for _, lm := range layerMetrics {
		out = append(out, metric{lm.name, meanOf(recs, lm.get), lm.unit})
	}
	sum := func(get func(r *tickRec) float64) float64 { return sumOf(recs, get) }
	calls := sum(func(r *tickRec) float64 { return float64(r.calls) })
	retries := sum(func(r *tickRec) float64 { return float64(r.retries) })
	msgs := sum(func(r *tickRec) float64 { return float64(r.msgs) })
	drops := sum(func(r *tickRec) float64 { return float64(r.drops) })
	out = append(out,
		metric{"txn.occ_retry_ratio", ratio(retries, calls), "ratio"},
		metric{"replica.drop_ratio", ratio(drops, msgs+drops), "ratio"},
	)
	var stale, live []float64
	var allocs, allocBytes, pause float64
	for _, ep := range untraced {
		stale = append(stale, ep.staleP99)
		live = append(live, ep.liveHeapMB)
		allocs += float64(ep.allocs)
		allocBytes += float64(ep.allocBytes)
		pause += float64(ep.gcPauseNS)
	}
	n := float64(len(recs))
	out = append(out,
		metric{"client_staleness_p99_ticks", quantile(stale, 0.5), "ticks"},
		metric{"go.allocs_per_tick", allocs / n, "count"},
		metric{"go.alloc_mb_per_tick", allocBytes / n / (1 << 20), "MB"},
		metric{"go.gc_pause_ms", pause / n / 1e6, "ms"},
		metric{"go.live_heap_mb", quantile(live, 0.5), "MB"},
	)
	setupMS := func(get func(t setupTimes) int64) float64 {
		var xs []float64
		for _, t := range setups {
			xs = append(xs, ms(get(t)))
		}
		return quantile(xs, 0.5)
	}
	out = append(out,
		metric{"setup.compile_ms", setupMS(func(t setupTimes) int64 { return t.compileNS }), "ms"},
		metric{"setup.seed_ms", setupMS(func(t setupTimes) int64 { return t.seedNS }), "ms"},
		metric{"setup.mesh_ms", setupMS(func(t setupTimes) int64 { return t.meshNS }), "ms"},
		metric{"setup.clients_ms", setupMS(func(t setupTimes) int64 { return t.clientsNS }), "ms"},
	)
	spans := allSpansMS(traced)
	for _, name := range spanMetrics {
		out = append(out, metric{"span." + name, spans[name], "ms"})
	}
	overhead := 0.0
	if len(traced) > 0 {
		base := quantile(minTickMS(untraced), 0.5)
		overhead = (quantile(minTickMS(traced), 0.5) - base) / base * 100
	}
	out = append(out, metric{"trace.overhead_pct", overhead, "%"})
	failedShare := ratio(sum(func(r *tickRec) float64 { return float64(r.failed) }),
		sum(func(r *tickRec) float64 { return float64(r.attempted) }))
	return append(out, metric{"failed_share", failedShare, "share"})
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// allSpansMS is every span name's self time in ms per traced tick.
func allSpansMS(traced []episode) map[string]float64 {
	out := map[string]float64{}
	ticks := 0
	for _, ep := range traced {
		ticks += len(ep.recs)
		for name, ns := range ep.spans {
			out[name] += float64(ns)
		}
	}
	for name := range out {
		out[name] /= float64(ticks) * 1e6
	}
	return out
}

// drift reports every per-layer figure's mean over the first and the
// last quarter of one episode's ticks, so a workload whose load fades
// (or grows) is not mistaken for a speed-up (or a slow-down).
func drift(ep episode) map[string][2]float64 {
	q := len(ep.recs) / 4
	if q == 0 || ep.tickErr != nil {
		return nil
	}
	first, last := ep.recs[:q], ep.recs[len(ep.recs)-q:]
	out := map[string][2]float64{}
	for _, lm := range layerMetrics {
		out[lm.name] = [2]float64{meanOf(first, lm.get), meanOf(last, lm.get)}
	}
	out["go.allocs_per_tick"] = [2]float64{float64(ep.quarterAllocs[0]) / float64(q), float64(ep.quarterAllocs[1]) / float64(q)}
	return out
}

func hexSums(sums []uint64) []string {
	out := make([]string, len(sums))
	for i, s := range sums {
		out[i] = fmt.Sprintf("%016x", s)
	}
	return out
}

// firstDivergence names the tick window in which got first differs
// from ref, or "" when they agree.
func firstDivergence(got, ref []string, ticks int) string {
	prev := 0
	for i := range got {
		at := min((i+1)*checkEvery, ticks)
		if i >= len(ref) || got[i] != ref[i] {
			return fmt.Sprintf("first diverged in ticks %d–%d", prev+1, at)
		}
		prev = at
	}
	return ""
}

// resetPeakRSS restarts the kernel's peak resident set count (VmHWM).
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set size in MB since the
// last resetPeakRSS.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			var kb float64
			if _, err := fmt.Sscan(f[1], &kb); err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM not found in /proc/self/status")
}
