package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
)

// goldenSeed is the seed golden.json was recorded with.
const goldenSeed = 1

// goldenTolerance is the relative distance from golden.json beyond which a
// loss counts as wrong.
const goldenTolerance = 1e-3

//go:embed golden.json
var goldenRaw []byte

type goldenLosses struct {
	ValLoss   float64 `json:"val_loss"`
	TrainLoss float64 `json:"train_loss"`
}

// checkGolden compares the losses after the fixed epochs with the recorded
// ones. Both depend only on the seed and the workload's sizes — not on how
// many epochs fit in the time budget — so it applies to every full-scale run
// of the default seed. It is the guard against buying speed with loss, or
// with a silent change in arithmetic.
func checkGolden(w workload, opt options, tp *trainStats, out *outcome) {
	if opt.seed != goldenSeed || opt.shrunk() {
		return
	}
	var golden map[string]goldenLosses
	if err := json.Unmarshal(goldenRaw, &golden); err != nil {
		out.problem("golden.json: %v", err)
		return
	}
	want, ok := golden[w.Name]
	if !ok {
		out.problem("golden.json has no entry for %s", w.Name)
		return
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{{"val_loss", tp.valLoss, want.ValLoss}, {"train_loss", tp.trainLoss, want.TrainLoss}} {
		if rel := math.Abs(c.got-c.want) / math.Abs(c.want); rel > goldenTolerance {
			out.problem("%s %.9g is %.2e away (relative) from golden %.9g, tolerance %.0e", c.name, c.got, rel, c.want, goldenTolerance)
		}
	}
}

// checkFingerprint compares the stream state after the first open-loop window
// with what earlier runs of the same workload, seed and timing — traced or
// not — left in outDir, and records this run's. Up to that point a run has
// sent a fixed number of fixed bodies, so all of them must agree bit for bit:
// neither tracing nor the run's speed may change what the servers compute.
func checkFingerprint(w workload, opt options, fp string, out *outcome) error {
	path := filepath.Join(opt.outDir, fmt.Sprintf("%s.seed%d.s%g.x%g.fingerprint.json", w.Name, opt.seed, opt.seconds, opt.scale))
	seen := map[string]string{}
	raw, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(raw, &seen); err != nil {
			seen = map[string]string{} // a torn file from a killed run: start over
		}
	case !errors.Is(err, fs.ErrNotExist):
		return err
	}
	for mode, prev := range seen {
		if prev != fp {
			out.problem("state fingerprint after the first window is %s, an earlier %s run of this seed had %s", fp, mode, prev)
		}
	}
	mode := "untraced"
	if opt.trace {
		mode = "traced"
	}
	seen[mode] = fp
	raw, err = json.Marshal(seen)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
