// Command bench is the repository's benchmark: the GSINO flow end to end
// and layer by layer, on four workloads that each stress a different
// layer (see README.md). From the root of the repository:
//
//	bash bench/run.sh -workload dense-warm -seed 1     # one workload, timed
//	bash bench/run.sh -workload grid12 -trace 1        # per-layer metrics
//	bash bench/run.sh -seed 2 > head.jsonl             # all four, one child process each
//	bash bench/run.sh -compare base.jsonl head.jsonl   # verdict per workload and metric
//	bash bench/run.sh -print-digests > bench/digests.json
//
// A workload run prints, as its last line of standard output, one JSON
// object: {"correct", "attempted", "failed", "metrics"}, where metrics are
// the end-to-end metrics with -trace 0 and the per-layer ones with
// -trace 1. It exits non-zero when any output was wrong.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
)

// defaultSeconds matches run_seconds in BENCHMARK.json.
const defaultSeconds = 20

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: dense-warm, wide-cold, grid12 or eco-stream; empty runs all four, each in its own child process")
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", defaultSeconds, "how long the timed loop runs")
	trace := fs.Int("trace", 0, "1 adds the traced run and reports per-layer metrics in place of end-to-end ones")
	compareBase := fs.String("compare", "", "compare two results files: this base file and the head file given as the argument")
	printDigests := fs.Bool("print-digests", false, "print every workload's output digests for -seed as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	}

	if *compareBase != "" {
		if fs.NArg() != 1 {
			fmt.Fprintln(stderr, "bench: -compare base.jsonl head.jsonl")
			return 2
		}
		if err := compare(*compareBase, fs.Arg(0), "BENCHMARK.json", stdout); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}

	var err error
	if *workload == "" && !*printDigests {
		err = runAll(ctx, *seed, *seconds, *trace, stdout, stderr)
	} else {
		err = runHere(ctx, *workload, *seed, *seconds, *trace == 1, *printDigests, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// outDir is where runs write, relative to the working directory (the root
// of the checkout): scratch directories, removed at exit, and traces.
const outDir = ".bench_build"

// runHere runs one workload, or prints the digests, in this process.
func runHere(ctx context.Context, workload string, seed int64, seconds float64, trace, printDigests bool, stdout, stderr io.Writer) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	e := &env{seed: seed, workers: runtime.NumCPU(), scratch: scratch}
	if printDigests {
		return printAllDigests(ctx, e, stdout)
	}

	sp, err := workloadByName(workload)
	if err != nil {
		return err
	}
	opts := runOpts{seconds: seconds, trace: trace}
	if trace {
		opts.traceOut = filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", sp.name, seed))
	}
	res, err := runWorkload(ctx, sp, e, opts, stderr)
	if err != nil {
		return err
	}
	printTable(stderr, sp.name, res)
	if trace {
		fmt.Fprintf(stderr, "%s: wrote %s\n", sp.name, opts.traceOut)
	}
	if err := writeJSONLine(stdout, res); err != nil {
		return err
	}
	if !res.Correct {
		return errors.New("some outputs were wrong")
	}
	return nil
}

func writeJSONLine(w io.Writer, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// printTable writes every metric by name with its unit.
func printTable(w io.Writer, workload string, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for _, m := range endToEnd {
		if _, ok := res.Metrics[m.name]; ok {
			names = append(names, m.name)
		}
	}
	if len(names) == 0 {
		for _, l := range timedLayers {
			names = append(names, l.name)
		}
		for _, m := range tracedLayers() {
			names = append(names, m.name)
		}
	}
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "%-12s %-32s %14.6g %s\n", workload, n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "%-12s correct=%v attempted=%d failed=%d\n", workload, res.Correct, res.Attempted, res.Failed)
}

// record is one workload's result in a results file: the lines runAll
// prints and -compare reads.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

// runAll runs every workload, one after another, each in its own child
// process so heaps, caches and peak RSS are not shared, and prints one
// record line per workload.
func runAll(ctx context.Context, seed int64, seconds float64, trace int, stdout, stderr io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var bad []string
	for _, sp := range workloads {
		var out bytes.Buffer
		cmd := exec.CommandContext(ctx, exe,
			"-workload", sp.name,
			"-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
			"-trace", strconv.Itoa(trace))
		cmd.Stdout, cmd.Stderr = &out, stderr
		runErr := cmd.Run()
		res, perr := lastResult(out.Bytes())
		if perr != nil {
			return fmt.Errorf("%s: %v (child: %v)", sp.name, perr, runErr)
		}
		if err := writeJSONLine(stdout, record{Workload: sp.name, Seed: seed, Trace: trace, Result: *res}); err != nil {
			return err
		}
		if runErr != nil || !res.Correct {
			bad = append(bad, sp.name)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("wrong outputs in %v", bad)
	}
	return nil
}

// lastResult parses the result object on the last non-empty line.
func lastResult(out []byte) (*result, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	if last == nil {
		return nil, errors.New("no result printed")
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("parsing result: %w", err)
	}
	return &res, nil
}

// printAllDigests computes every workload's digest per input on both the
// cached path (nproc workers) and the store-less reference path (1
// worker), fails if they differ, and prints them as digests.json expects.
func printAllDigests(ctx context.Context, e *env, w io.Writer) error {
	all := map[string][]string{}
	for _, sp := range workloads {
		fx, err := sp.setup(ctx, e)
		if err != nil {
			return fmt.Errorf("%s: set-up: %w", sp.name, err)
		}
		err = func() error {
			defer fx.close()
			for key := 0; key < fx.keys; key++ {
				var ds [2]string
				for i, cached := range []bool{true, false} {
					workers := 1
					if cached {
						workers = e.workers
					}
					fr, err := fx.flow(ctx, key, workers, cached)
					if err != nil {
						return err
					}
					if cached && fx.after != nil {
						if err := fx.after(); err != nil {
							return err
						}
					}
					if ds[i], err = digest(fr.outs); err != nil {
						return err
					}
				}
				if ds[0] != ds[1] {
					return fmt.Errorf("input %d: cached digest %s != reference %s", key, ds[0], ds[1])
				}
				all[sp.name] = append(all[sp.name], ds[0])
			}
			return nil
		}()
		if err != nil {
			return fmt.Errorf("%s: %w", sp.name, err)
		}
	}
	data, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
