// Command tracemerge merges per-process -trace-chrome files onto one
// Perfetto/chrome://tracing timeline. Each input file becomes one process
// lane (pid), and per-process clock offsets are estimated from the
// distributed-trace spans the files share: a shard span carrying
// remote_parent nests inside the router span with the same trace_id, so
// aligning their midpoints recovers the epoch skew between the processes.
//
//	cascade-router -trace-chrome router.trace ... &
//	cascade-serve  -trace-chrome shard0.trace ... &
//	...
//	go run ./tools/tracemerge -o cluster.trace router.trace shard0.trace shard1.trace
//
// The merged file loads directly in Perfetto; search for a trace_id to see
// one request's spans across every process it touched.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"github.com/cascade-ml/cascade/internal/obs"
)

func main() {
	out := flag.String("o", "merged.trace", "output file for the merged Chrome trace")
	selftest := flag.Bool("selftest", false, "run the built-in merge/alignment check and exit")
	flag.Parse()

	if *selftest {
		if err := runSelftest(); err != nil {
			fmt.Fprintln(os.Stderr, "tracemerge selftest FAILED:", err)
			os.Exit(1)
		}
		fmt.Println("tracemerge selftest ok")
		return
	}

	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: tracemerge [-o merged.trace] file1.trace file2.trace ...")
		os.Exit(2)
	}
	var files []obs.TraceFile
	for _, name := range flag.Args() {
		data, err := os.ReadFile(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tracemerge:", err)
			os.Exit(1)
		}
		files = append(files, obs.TraceFile{Name: name, Data: data})
	}
	merged, rep, err := obs.MergeChromeTraces(files)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracemerge:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, merged, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "tracemerge:", err)
		os.Exit(1)
	}
	fmt.Printf("merged %d events from %d processes into %s\n", rep.Events, len(rep.Processes), *out)
	fmt.Printf("distributed traces: %d\n", len(rep.Traces))
	cross := 0
	for _, procs := range rep.Traces {
		if len(procs) > 1 {
			cross++
		}
	}
	fmt.Printf("cross-process traces: %d\n", cross)
	for name, off := range rep.Offsets {
		fmt.Printf("clock offset %-30s %+.1fus\n", name, off)
	}
}

// runSelftest builds two synthetic traces with a known epoch skew — a
// "router" whose span covers a "shard" span continuing the same trace-id —
// merges them, and checks the estimated offset recovers the skew, the
// trace-id spans both processes, and the output stays valid JSON.
func runSelftest() error {
	const skew = 250_000.0 // µs: the shard's clock runs this far behind
	router := []byte(`[
{"name":"process_name","ph":"M","pid":1,"args":{"name":"cascade"}},
{"name":"router_ingest","ph":"X","pid":1,"tid":7,"ts":1000,"dur":400,"args":{"trace_id":"aabbccddeeff00112233445566778899","span_id":1}},
{"name":"router_score","ph":"X","pid":1,"tid":7,"ts":2000,"dur":600,"args":{"trace_id":"99887766554433221100ffeeddccbbaa","span_id":2}}
]`)
	shard := []byte(fmt.Sprintf(`[
{"name":"process_name","ph":"M","pid":1,"args":{"name":"cascade"}},
{"name":"serve_ingest","ph":"X","pid":1,"tid":7,"ts":%g,"dur":300,"args":{"trace_id":"aabbccddeeff00112233445566778899","remote_parent":"0102030405060708","span_id":9}},
{"name":"serve_score","ph":"X","pid":1,"tid":7,"ts":%g,"dur":500,"args":{"trace_id":"99887766554433221100ffeeddccbbaa","remote_parent":"1112131415161718","span_id":10}}
]`, 1050-skew, 2050-skew))

	merged, rep, err := obs.MergeChromeTraces([]obs.TraceFile{
		{Name: "router.trace", Data: router},
		{Name: "shard.trace", Data: shard},
	})
	if err != nil {
		return err
	}
	if got := rep.Offsets["router.trace"]; got != 0 {
		return fmt.Errorf("reference offset: got %g, want 0", got)
	}
	// Both synthetic child spans sit at the parent midpoint once shifted by
	// exactly skew, so the estimate should land on it to within rounding.
	if got := rep.Offsets["shard.trace"]; math.Abs(got-skew) > 1 {
		return fmt.Errorf("shard offset: got %g, want %g", got, skew)
	}
	for _, tid := range []string{"aabbccddeeff00112233445566778899", "99887766554433221100ffeeddccbbaa"} {
		procs := rep.Traces[tid]
		if len(procs) != 2 {
			return fmt.Errorf("trace %s spans %v, want both processes", tid, procs)
		}
	}
	if rep.Events != 4 {
		return fmt.Errorf("merged %d events, want 4", rep.Events)
	}
	// A truncated input (killed process) must still merge.
	if _, _, err := obs.MergeChromeTraces([]obs.TraceFile{
		{Name: "torn.trace", Data: router[:len(router)-3]},
		{Name: "shard.trace", Data: shard},
	}); err != nil {
		return fmt.Errorf("torn-input merge: %v", err)
	}
	if len(merged) == 0 || merged[0] != '[' {
		return fmt.Errorf("merged output is not a JSON array")
	}
	return nil
}
