package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json the repeat mode needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// repeatAll is both the bound-calibration tool and the repeatability check:
// every workload (or only `only`) runs n times untraced, each time with
// another seed as the acceptance procedure does, and per end-to-end metric the
// median, the quartiles and the interquartile spread as a share of the median
// are printed against the metric's bound. A spread over the bound fails;
// setup_s is exempt, as it is in the acceptance procedure.
func repeatAll(n int, seed int64, seconds float64, only, outDir string) int {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: -repeat reads the bounds from BENCHMARK.json in the current directory: %v\n", err)
		return 2
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: BENCHMARK.json: %v\n", err)
		return 2
	}
	code := 0
	for _, w := range workloads {
		if only != "" && only != w.Name {
			continue
		}
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			res, err := child(w.Name, seed+int64(i), seconds, 0, outDir, nil)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %v\n", w.Name, seed+int64(i), err)
				code = 1
			}
			if res == nil {
				continue
			}
			for name, v := range res.Metrics {
				values[name] = append(values[name], v.Value)
			}
		}
		fmt.Printf("== %s: %d runs, seeds %d..%d\n", w.Name, n, seed, seed+int64(n)-1)
		fmt.Printf("%-22s %-9s %12s %12s %12s %8s %6s\n", "metric", "unit", "q1", "median", "q3", "spread", "bound")
		for _, m := range bf.EndToEnd {
			xs := values[m.Name]
			q1, q2, q3 := quartiles(xs)
			spread := relSpread(xs)
			verdict := ""
			switch {
			case len(xs) < n:
				verdict = "  MISSING"
				code = 1
			case spread > m.Bound && m.Name != "setup_s":
				verdict = "  OVER BOUND"
				code = 1
			case spread > m.Bound/3:
				verdict = "  (over a third of the bound)"
			}
			fmt.Printf("%-22s %-9s %12.5g %12.5g %12.5g %7.1f%% %5.0f%%%s\n", m.Name, m.Unit, q1, q2, q3, 100*spread, 100*m.Bound, verdict)
			fmt.Printf("%-22s by seed: %.4g\n", "", xs)
		}
	}
	return code
}
