// Command benchmark is the repo's ruler: five named train/serve workloads,
// each reporting every end-to-end metric of BENCHMARK.json (or, with -trace 1,
// every per-layer metric), with the outputs checked in the same command. It
// measures every layer from outside, by timing calls into public functions,
// and claims no gain. See README.md in this directory.
//
//	go run ./benchmark -workload serve_solo_dense -seed 1
//	go run ./benchmark -workload train_tgn_cascade -seed 1 -trace 1
//	go run ./benchmark -all
//	go run ./benchmark -repeat 10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// defaultSeconds mirrors run_seconds in BENCHMARK.json.
const defaultSeconds = 15

// benchProcs is the GOMAXPROCS every workload runs with. The box's two CPUs
// are SMT siblings of one core, which the host places and shares as it likes:
// with both in use, whole runs came out up to a quarter slower than their
// neighbours; with one, run-to-run spread is a few percent and throughput
// about 6 % lower. A ruler has to repeat, so the benchmark pins it and says so.
const benchProcs = 1

func main() {
	name := flag.String("workload", "", "workload to run (see -list)")
	seed := flag.Int64("seed", goldenSeed, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", defaultSeconds, "measuring time: serve phase + timed epochs")
	trace := flag.Int("trace", 0, "1: record spans, write benchmark/out/<workload>.trace.json and report per-layer metrics instead of end-to-end ones")
	all := flag.Bool("all", false, "run every workload, one fresh process each")
	repeat := flag.Int("repeat", 0, "run every workload N times with seeds seed..seed+N-1 and fail when an end-to-end metric's spread exceeds its bound in BENCHMARK.json")
	list := flag.Bool("list", false, "list the workloads")
	outDir := flag.String("out", "benchmark/out", "directory for trace files, fingerprints and WAL scratch")
	flag.Parse()

	switch {
	case *list:
		for _, w := range workloads {
			fmt.Printf("%-18s %s under %s on %s, %d nodes, %d training events\n", w.Name, w.Model, w.Sched, w.Profile, w.Nodes, w.TrainEvents)
		}
	case *repeat > 0:
		os.Exit(repeatAll(*repeat, *seed, *seconds, *name, *outDir))
	case *all:
		code := 0
		for _, w := range workloads {
			fmt.Printf("== %s\n", w.Name)
			if _, err := child(w.Name, *seed, *seconds, *trace, *outDir, os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.Name, err)
				code = 1
			}
		}
		os.Exit(code)
	default:
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			os.Exit(2)
		}
		runtime.GOMAXPROCS(benchProcs)
		opt := options{seed: *seed, seconds: *seconds, trace: *trace != 0, setupRepeats: 3, outDir: *outDir}
		if opt.trace {
			opt.setupRepeats = 1 // setup_s is an end-to-end metric; a traced run does not report it
		}
		out, err := runWorkload(*w, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.Name, err)
			os.Exit(1)
		}
		os.Exit(printOutcome(out))
	}
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printOutcome prints every metric by name with its unit, the failed checks,
// and the result object as the last line; a failed check exits non-zero.
func printOutcome(out *outcome) int {
	res := result{Correct: len(out.problems) == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]resultValue{}}
	for _, m := range out.metrics.sorted() {
		fmt.Printf("%-36s %s %s\n", m.Name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
		if !isFinite(m.Value) {
			out.problem("metric %s is %v", m.Name, m.Value)
			res.Correct = false
			m.Value = 0
		}
		res.Metrics[m.Name] = resultValue{m.Value, m.Unit}
	}
	for _, n := range out.notes {
		fmt.Printf("# %s\n", n)
	}
	for _, p := range out.problems {
		fmt.Printf("# CHECK FAILED: %s\n", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// child runs one workload in a fresh process of this same binary, so every
// run starts with a cold heap and its own peak RSS, and returns the parsed
// result line. The child's report goes to echo when it is not nil.
func child(name string, seed int64, seconds float64, trace int, outDir string, echo *os.File) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe,
		"-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-out", outDir)
	cmd.Stderr = os.Stderr
	raw, runErr := cmd.Output()
	if echo != nil {
		echo.Write(raw)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("no result line: %w", err)
	}
	if runErr != nil {
		return &res, fmt.Errorf("checks failed: %w", runErr)
	}
	return &res, nil
}
