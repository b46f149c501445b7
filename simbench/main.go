// Command simbench is the simulator's benchmark: it runs one workload
// (fig3, overload or sweep) closed loop, checks the simulated outputs,
// and prints every end-to-end metric (--trace 0) or per-layer metric
// (--trace 1) by name and unit, ending with one JSON result line. See
// README.md for the workloads and the metric definitions.
//
// Run it through run.sh from the repository root, which builds it from
// the checkout's sources:
//
//	bash simbench/run.sh --workload fig3 --seed 1 --seconds 30 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// runEnv is the context of one benchmark run.
type runEnv struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	workers  int
	runID    string
	out      string // kept outputs: span files, run records
	work     string // throw-away stores, removed at exit
	stdout   io.Writer
	dirs     int
}

// freshDir returns a new, not yet existing directory under the run's
// work directory.
func (env *runEnv) freshDir(name string) string {
	env.dirs++
	return filepath.Join(env.work, fmt.Sprintf("%s-%d", name, env.dirs))
}

// spanFile is where a traced run writes its spans.
func (env *runEnv) spanFile() string {
	return filepath.Join(env.out, fmt.Sprintf("trace-%s-seed%d.json", env.workload, env.seed))
}

// writeSpans writes the run's spans as Perfetto-loadable JSON.
func (env *runEnv) writeSpans(spans []span) error {
	f, err := os.Create(env.spanFile())
	if err != nil {
		return err
	}
	if err := writeChrome(f, env.runID, spans); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(env.stdout, "spans %d written to %s (run id %s)\n", len(spans), env.spanFile(), env.runID)
	return nil
}

// workloads maps each --workload name to its untraced and traced runs.
var workloads = map[string]struct {
	measure, traced func(*runEnv, *outcome) error
}{
	"fig3":     {fig3.measure, fig3.traced},
	"overload": {overload.measure, overload.traced},
	"sweep":    {sweepMeasure, sweepTraced},
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("simbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var (
		workload = fl.String("workload", "", "workload to run: fig3 | overload | sweep")
		seed     = fl.Int64("seed", 1, "workload seed; batch i runs at pmm.ReplicateSeed(seed, i)")
		secs     = fl.Float64("seconds", 30, "how long the untraced run keeps starting batches (sweep: cold passes)")
		traceOn  = fl.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
		out      = fl.String("out", ".bench_build/simbench", "directory for span files and run records")
		commit   = fl.String("commit", "unknown", "commit of the code under test, stamped on the record")
	)
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*workload]
	if !ok || (*traceOn != 0 && *traceOn != 1) || *secs <= 0 {
		fmt.Fprintf(stderr, "simbench: need --workload fig3|overload|sweep, --trace 0|1 and --seconds > 0\n")
		return 2
	}
	env := &runEnv{
		workload: *workload, seed: *seed,
		seconds: time.Duration(*secs * float64(time.Second)),
		traced:  *traceOn == 1, workers: runtime.NumCPU(),
		out: *out, stdout: stdout,
	}
	env.runID = fmt.Sprintf("%s-seed%d-%d-%d", env.workload, env.seed, os.Getpid(), time.Now().UnixNano())
	env.work = filepath.Join(env.out, "work-"+env.runID)
	if err := os.MkdirAll(env.work, 0o755); err != nil {
		fmt.Fprintf(stderr, "simbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(env.work)

	stamp := newStamp(env, *commit)
	fmt.Fprintf(stdout, "simbench workload=%s seed=%d seconds=%g trace=%d\n", env.workload, env.seed, *secs, *traceOn)
	fmt.Fprintf(stdout, "host=%s nproc=%d gomaxprocs=%d go=%s commit=%s src=%s\n",
		stamp.Host, stamp.NProc, stamp.GOMAXPROCS, stamp.GoVersion, stamp.Commit, stamp.Source)
	fmt.Fprintln(stdout, "reference: the repository holds no numeric results of the paper, so the model is unvalidated and no error figure is given")

	o := newOutcome()
	step, defs := w.measure, endToEnd
	if env.traced {
		step, defs = w.traced, perLayer
	}
	if err := step(env, o); err != nil {
		fmt.Fprintf(stderr, "simbench: %v\n", err)
		return 1
	}
	for _, p := range o.problems {
		fmt.Fprintf(stdout, "check failed: %s\n", p)
	}
	if err := appendRecord(env, stamp, o); err != nil {
		fmt.Fprintf(stderr, "simbench: %v\n", err)
		return 1
	}
	if err := o.emit(stdout, defs); err != nil {
		fmt.Fprintf(stderr, "simbench: %v\n", err)
		return 1
	}
	return 0
}

// stamp identifies where and on what code a record was measured.
type stamp struct {
	Time       string `json:"time"`
	Host       string `json:"host"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
	// Source is a SHA-256 over the module's Go sources and go.mod,
	// which identifies the code in a checkout that is not a git tree.
	Source string `json:"src"`
}

func newStamp(env *runEnv, commit string) stamp {
	host, _ := os.Hostname() // a missing host name only blanks the stamp
	return stamp{
		Time: time.Now().UTC().Format(time.RFC3339), Host: host,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit, Source: sourceDigest(env.out),
	}
}

// sourceDigest hashes every .go file and go.mod of the tree at the
// working directory, skipping hidden directories, the benchmark's own
// directory and the output directory; "unknown" if the walk fails.
func sourceDigest(outDir string) string {
	h := sha256.New()
	skip := filepath.Clean(outDir)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "simbench" || path == skip) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(raw))
		h.Write(raw)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// appendRecord appends the run's stamped record to records.jsonl.
func appendRecord(env *runEnv, st stamp, o *outcome) error {
	rec := struct {
		stamp
		Workload  string             `json:"workload"`
		Seed      int64              `json:"seed"`
		Trace     bool               `json:"trace"`
		Attempted int                `json:"attempted"`
		Failed    int                `json:"failed"`
		Metrics   map[string]float64 `json:"metrics"`
	}{st, env.workload, env.seed, env.traced, o.attempted, o.failed, o.values}
	raw, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("run record: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(env.out, "records.jsonl"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("run record: %w", err)
	}
	if _, err := f.Write(append(raw, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("run record: %w", err)
	}
	return f.Close()
}
