// Command bench is the repository's canonical benchmark: four
// workloads, the end-to-end metrics a user of the system sees, per-layer
// probes and a traced run. See README.md in this directory.
//
//	go run ./bench                         every workload, each in its own child process
//	go run ./bench -trace 1                ... followed by the traced run of each
//	go run ./bench -workload q3_large      one workload, in this process
//	go run ./bench -compare A.json B.json  apply the bounds to two result files
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

const (
	schemaVersion  = 1
	defaultSeconds = 25 // BENCHMARK.json's run_seconds
)

func main() {
	var cfg config
	var trace int
	var compare bool
	flag.StringVar(&cfg.workload, "workload", "", "run this one workload in this process (default: all, one child process each)")
	flag.Int64Var(&cfg.seed, "seed", 1, "TPC-H data seed")
	flag.Float64Var(&cfg.seconds, "seconds", defaultSeconds, "length of each workload's timed loop")
	flag.IntVar(&trace, "trace", 0, "1: the traced run (observers on both parties, layer probes, span files, per-layer metrics)")
	flag.StringVar(&cfg.outDir, "out", filepath.Join("bench", "out"), "directory for result.json and the span files")
	flag.BoolVar(&compare, "compare", false, "compare two result files: -compare PARENT.json CHANGE.json")
	flag.Parse()
	cfg.trace = trace != 0

	var err error
	ok := true
	switch {
	case compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two result files")
			break
		}
		ok, err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case flag.NArg() != 0:
		err = fmt.Errorf("unexpected argument %q", flag.Arg(0))
	case cfg.workload != "":
		ok, err = runOne(cfg)
	default:
		ok, err = runAll(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// runFile is where a child leaves its full result for the parent.
func runFile(outDir, workload string, traced bool) string {
	kind := "e2e"
	if traced {
		kind = "layers"
	}
	return filepath.Join(outDir, "run-"+workload+"-"+kind+".json")
}

// runOne runs one workload in this process, prints its metrics and, as
// the last line of standard output, the result object.
func runOne(cfg config) (bool, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return false, err
	}
	res, err := runWorkload(cfg)
	if err != nil {
		return false, err
	}
	if err := writeJSON(runFile(cfg.outDir, res.Workload, res.Traced), res); err != nil {
		return false, err
	}
	printMetrics(os.Stdout, res)
	for _, f := range res.Failures {
		fmt.Fprintln(os.Stderr, "bench: wrong:", f)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return res.Correct, nil
}

func printMetrics(w io.Writer, res *runResult) {
	for _, set := range []map[string]metricValue{res.Metrics, res.Extras} {
		names := make([]string, 0, len(set))
		for name := range set {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(w, "%s %s %v %s\n", res.Workload, name, set[name].Value, set[name].Unit)
		}
	}
	fmt.Fprintf(w, "%s fail_frac %v ratio\n", res.Workload, res.FailFrac)
}

// resultFile is bench/out/result.json.
type resultFile struct {
	SchemaVersion int                        `json:"schema_version"`
	Env           environment                `json:"environment"`
	Seed          int64                      `json:"seed"`
	Seconds       float64                    `json:"seconds"`
	Workloads     map[string]*workloadResult `json:"workloads"`
}

type workloadResult struct {
	Why      string     `json:"why"`
	EndToEnd *runResult `json:"end_to_end"`
	Layers   *runResult `json:"layers,omitempty"`
}

// runAll runs every workload in its own child process, so that the
// process-wide planner cache, the heap high-water mark and the obs
// globals of one never reach the next, and merges the results.
func runAll(cfg config) (bool, error) {
	exe, err := os.Executable()
	if err != nil {
		return false, err
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return false, err
	}
	out := resultFile{SchemaVersion: schemaVersion, Env: readEnvironment(), Seed: cfg.seed,
		Seconds: cfg.seconds, Workloads: map[string]*workloadResult{}}
	ok := true
	child := func(w string, traced bool) (*runResult, error) {
		trace := "0"
		if traced {
			trace = "1"
		}
		cmd := exec.Command(exe, "-workload", w, "-seed", fmt.Sprint(cfg.seed),
			"-seconds", fmt.Sprint(cfg.seconds), "-trace", trace, "-out", cfg.outDir)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			if _, wrong := err.(*exec.ExitError); !wrong || cmd.ProcessState.ExitCode() != 1 {
				return nil, fmt.Errorf("%s: %w", w, err)
			}
			ok = false // exit code 1: it ran, and something was wrong
		}
		var res runResult
		if err := readJSON(runFile(cfg.outDir, w, traced), &res); err != nil {
			return nil, err
		}
		os.Remove(runFile(cfg.outDir, w, traced))
		return &res, nil
	}
	for _, w := range workloads {
		wr := &workloadResult{Why: w.Why}
		if wr.EndToEnd, err = child(w.Name, false); err != nil {
			return false, err
		}
		if cfg.trace {
			if wr.Layers, err = child(w.Name, true); err != nil {
				return false, err
			}
		}
		out.Workloads[w.Name] = wr
	}
	path := filepath.Join(cfg.outDir, "result.json")
	if err := writeJSON(path, out); err != nil {
		return false, err
	}
	fmt.Fprintln(os.Stderr, "bench: wrote", path)
	return ok, nil
}

// environment is what a result must carry to be compared with another.
type environment struct {
	CPUModel    string `json:"cpu_model"`
	NumCPU      int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	GitCommit   string `json:"git_commit"`
	GitDirty    bool   `json:"git_dirty"`
	Workers     int    `json:"parallel_workers"`
	ChunkSize   int    `json:"default_chunk_size"`
	ObsEnabled  bool   `json:"obs_enabled"`
	RingBits    int    `json:"ring_bits"`
	DaemonSlots int    `json:"daemon_slots"`
}

func readEnvironment() environment {
	env := environment{CPUModel: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GitCommit: "unknown", RingBits: ringBits, DaemonSlots: daemonSlots}
	env.Workers, env.ChunkSize, env.ObsEnabled = programDefaults()
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
				env.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
		f.Close()
	}
	// Outside a git checkout both commands fail and the defaults stand.
	if rev, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.GitCommit = strings.TrimSpace(string(rev))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			env.GitDirty = len(strings.TrimSpace(string(st))) > 0
		}
	}
	return env
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// writeTrace writes one workload's spans, each with its self time.
func writeTrace(outDir, workload string, spans []span) error {
	type spanOut struct {
		span
		Self float64 `json:"self_s"`
	}
	self := selfTimes(spans)
	out := make([]spanOut, len(spans))
	for i, s := range spans {
		out[i] = spanOut{s, self[s.ID]}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	return writeJSON(filepath.Join(outDir, "trace-"+workload+".json"), struct {
		Workload string    `json:"workload"`
		Spans    []spanOut `json:"spans"`
	}{workload, out})
}
