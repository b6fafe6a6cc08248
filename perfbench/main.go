// Command perfbench is the repository's benchmark: it trains a Pipe-BD
// hybrid plan on a two-worker cluster over TCP on 127.0.0.1, verifies
// every session bit for bit against the in-process engine, and reports
// end-to-end metrics (untraced runs) or per-layer metrics (traced runs).
// End-to-end times are read at a reference host speed that a probe
// measures while the sessions run (hostspeed.go); the wall-clock figures
// are printed beside them.
//
//	bash perfbench/run.sh --workload conv-ring --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload all
//
// run.sh builds this package from the checkout and runs it from there.
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: conv-ring, attn-ring, ctrl-hub, or all")
	seed := fs.Int64("seed", DefaultSeed, fmt.Sprintf("input seed (default %d; held-out seed for claims: %d)", DefaultSeed, HeldOutSeed))
	seconds := fs.Int("seconds", 30, "measuring time of the run, in seconds")
	trace := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	workdir := fs.String("workdir", os.TempDir(), "directory for the run's ledgers")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	if *name == "all" {
		return runAll(*seed, *seconds, *trace, *workdir, stdout, stderr)
	}
	wl := lookupWorkload(*name)
	if wl == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want conv-ring, attn-ring, ctrl-hub, or all)\n", *name)
		return 2
	}
	// Two cores is the host this benchmark is defined on; more would make
	// runs on bigger hosts incomparable, fewer oversubscribes.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	fmt.Fprintf(stdout, "perfbench: workload %s, seed %d, %d s, trace %d, GOMAXPROCS %d, NumCPU %d\n",
		wl.name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0), runtime.NumCPU())
	b, err := newBench(wl, *seed, dir)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	d := time.Duration(*seconds) * time.Second
	var res *result
	if *trace == 0 {
		res, err = untraced(b, d, stdout)
	} else {
		res, err = traced(b, d, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := res.json()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	return 0
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is a run's outcome: the sessions attempted and failed, whether
// every finished session was bit-identical to the oracle, and the metrics
// the last output line carries.
type result struct {
	attempted, failed, mismatched int
	metrics                       []metric
}

// errMismatch marks a session whose output differs from the oracle's.
var errMismatch = errors.New("output mismatch")

func (r *result) record(err error, out io.Writer) {
	r.attempted++
	if err == nil {
		return
	}
	r.failed++
	if errors.Is(err, errMismatch) {
		r.mismatched++
	}
	fmt.Fprintf(out, "perfbench: session %d FAILED: %v\n", r.attempted, err)
}

// resultLine is the JSON object the last output line carries.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) json() (string, error) {
	line := resultLine{Correct: r.mismatched == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]value, len(r.metrics))}
	for _, m := range r.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return "", fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		line.Metrics[m.name] = value{m.value, m.unit}
	}
	out, err := json.Marshal(line)
	return string(out), err
}

// runAll runs every workload in turn, each in its own process so each
// reports its own peak memory, and prints every metric of every workload
// by name, then one JSON line combining them as <workload>.<metric>.
func runAll(seed int64, seconds, trace int, workdir string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	all := resultLine{Correct: true, Metrics: map[string]value{}}
	for _, wl := range workloads {
		var buf strings.Builder
		cmd := exec.Command(self, "-workload", wl.name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace), "-workdir", workdir)
		cmd.Stdout = io.MultiWriter(stdout, &buf)
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "perfbench: workload %s: %v\n", wl.name, err)
			return 1
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var one resultLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &one); err != nil {
			fmt.Fprintf(stderr, "perfbench: workload %s: bad result line: %v\n", wl.name, err)
			return 1
		}
		all.Correct = all.Correct && one.Correct
		all.Attempted += one.Attempted
		all.Failed += one.Failed
		for k, v := range one.Metrics {
			all.Metrics[wl.name+"."+k] = v
		}
	}
	out, err := json.Marshal(all)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}
