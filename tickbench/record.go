package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// buildDir holds everything the benchmark leaves behind in the
// repository checkout: the binary, Go's build cache and the run history.
const buildDir = ".bench_build"

// hashCheck is the correctness record of one run.
type hashCheck struct {
	Ticks       int      `json:"ticks"`
	Every       int      `json:"checkpoint_every"`
	Sums        []string `json:"hashes"`
	Reference   []string `json:"reference_hashes"`
	Diverged    string   `json:"diverged,omitempty"`
	KnownDefect string   `json:"known_defect,omitempty"`
	Problems    []string `json:"problems,omitempty"`
}

// record labels a run's results with the machine, the code and the
// spread they were measured with.
type record struct {
	Workload        string                `json:"workload"`
	Seed            int64                 `json:"seed"`
	GOMAXPROCS      int                   `json:"gomaxprocs"`
	NProc           int                   `json:"nproc"`
	CPUModel        string                `json:"cpu_model"`
	GoVersion       string                `json:"go_version"`
	Commit          string                `json:"commit"`
	SourceSHA256    string                `json:"source_sha256"`
	TicksPerEpisode int                   `json:"ticks_per_episode"`
	Episodes        int                   `json:"episodes"`
	TracedEpisodes  int                   `json:"traced_episodes"`
	MeasuredTicks   int                   `json:"measured_ticks"`
	TickSamples     int                   `json:"tick_samples"`
	SetupSamples    int                   `json:"setup_samples"`
	TickMSQuartiles [3]float64            `json:"tick_ms_quartiles"`
	EpisodeTickP50  []float64             `json:"episode_tick_p50_ms"`
	EpisodePeakRSS  []float64             `json:"episode_peak_rss_mb"`
	SetupQuartiles  [3]float64            `json:"setup_s_quartiles"`
	RunToRun        map[string][3]float64 `json:"run_to_run_quartiles"`
	RunToRunRuns    int                   `json:"run_to_run_runs"`
	Drift           map[string][2]float64 `json:"drift_first_last_quarter"`
	Spans           map[string]float64    `json:"span_self_ms_per_tick,omitempty"`
	Hash            hashCheck             `json:"hash_check"`
}

func labels(w workload, seed int64, src string, eps []episode, setups int) record {
	r := record{
		Workload:        w.name,
		Seed:            seed,
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		NProc:           runtime.NumCPU(),
		CPUModel:        cpuModel(),
		GoVersion:       runtime.Version(),
		Commit:          gitCommit(),
		SourceSHA256:    src,
		TicksPerEpisode: w.ticks,
		Episodes:        len(eps),
		SetupSamples:    setups,
	}
	for _, ep := range eps {
		if ep.traced {
			r.TracedEpisodes++
		} else {
			r.TickSamples += len(ep.recs)
		}
		r.MeasuredTicks += len(ep.recs)
	}
	return r
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit is the checkout's commit, or "" outside a git work tree
// (source_sha256 identifies the code either way).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the checkout's Go sources and module files, so
// records, cached references and determinism checks are tied to the
// code that produced them.
func sourceDigest() (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == buildDir || path == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && filepath.Base(path) != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		h.Write([]byte(path + "\x00"))
		h.Write(b)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil)), err
}

// historyKey identifies runs whose hashes must agree.
type historyKey struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Ticks    int    `json:"ticks"`
	Source   string `json:"source_sha256"`
}

// historyEntry is one earlier run in this checkout.
type historyEntry struct {
	historyKey
	Traced    bool               `json:"traced"`
	Sums      []string           `json:"hashes"`
	Reference []string           `json:"reference_hashes"`
	Metrics   map[string]float64 `json:"metrics"`
}

// history is the run log kept in the build directory: it gives the
// run-to-run spread, checks that runs of one seed agree and spares
// recomputing a seed's reference.
type history struct {
	entries []historyEntry
	added   []historyEntry // this run's, not yet saved
}

func historyPath() string { return filepath.Join(buildDir, "tickbench-history.jsonl") }

func loadHistory() *history {
	h := &history{}
	b, err := os.ReadFile(historyPath())
	if err != nil {
		return h
	}
	for _, line := range strings.Split(string(b), "\n") {
		var e historyEntry
		if json.Unmarshal([]byte(line), &e) == nil && e.Workload != "" {
			h.entries = append(h.entries, e)
		}
	}
	return h
}

func (h *history) matching(k historyKey) []historyEntry {
	var out []historyEntry
	for _, e := range h.entries {
		if e.historyKey == k {
			out = append(out, e)
		}
	}
	return out
}

func (h *history) reference(k historyKey) []string {
	for _, e := range h.matching(k) {
		if len(e.Reference) > 0 {
			return e.Reference
		}
	}
	return nil
}

func (h *history) add(e historyEntry) {
	h.entries = append(h.entries, e)
	h.added = append(h.added, e)
}

func (h *history) save() error {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(historyPath(), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	for _, e := range h.added {
		b, err := json.Marshal(e)
		if err != nil {
			f.Close()
			return err
		}
		if _, err := f.Write(append(b, '\n')); err != nil {
			f.Close()
			return err
		}
	}
	h.added = nil
	return f.Close()
}

// runToRun gives each end-to-end metric's quartiles over every
// untraced run of workload on this code, this one included.
func (h *history) runToRun(workload, src string) (map[string][3]float64, int) {
	vals := map[string][]float64{}
	runs := 0
	for _, e := range h.entries {
		if e.Workload != workload || e.Source != src || e.Traced {
			continue
		}
		runs++
		for k, v := range e.Metrics {
			vals[k] = append(vals[k], v)
		}
	}
	out := map[string][3]float64{}
	for k, xs := range vals {
		out[k] = quartiles(xs)
	}
	return out, runs
}

func valuesOf(ms []metric) map[string]float64 {
	out := map[string]float64{}
	for _, m := range ms {
		out[m.name] = m.value
	}
	return out
}
