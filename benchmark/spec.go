package main

import (
	"fmt"
	"sort"

	"github.com/cascade-ml/cascade"
)

// workload is one fixed set of inputs. Every workload runs the same pipeline —
// generate a stream, train on its prefix, serve the 1-epoch weights under
// mixed /score + /ingest traffic, keep training — and so reports every
// end-to-end metric; the workloads differ in which phase gets most of the
// measured time and in which layers sit on the path. Sizes are fixed here; the
// seed and the measuring time are arguments.
type workload struct {
	Name string

	Model   string
	Sched   cascade.SchedulerKind
	Profile string // datagen profile: popularity skews, repeat affinity, feature width
	Nodes   int    // node universe of the generated stream
	// TrainEvents is the prefix of the stream the run trains on (split 80/20
	// into train and validation); TailEvents is the held-out remainder that
	// /ingest consumes. Consumption is fixed by design (warm-up, scheduled
	// windows, counted bursts, traced replays); the tail holds it with a margin.
	TrainEvents, TailEvents int
	// PrefillEvents of the tail are ingested in bulk during set-up, so that
	// the state the measured requests meet is large next to what they add.
	PrefillEvents int
	// IngestBurst is how many /ingest requests one closed-loop slice sends at
	// the default measuring time: about a slice's worth on seed code.
	IngestBurst int
	BaseBatch   int
	// FixedEpochs is how many timed epochs run before val_loss is read, so
	// the loss never depends on how many epochs fit in the time budget.
	FixedEpochs int
	// TrainShare is the share of the measuring time given to timed epochs;
	// the rest goes to the serve phase.
	TrainShare float64

	Topology              topology
	ScoreRate, IngestRate float64 // open-loop requests per second
}

// Model configuration shared by all workloads: cascade-serve's default
// dimensions, and one fixed seed for weight initialisation and negative
// sampling. The -seed argument generates the event stream only; letting it
// also redraw the initial weights made val_loss vary by 13 % between seeds
// after these few epochs, against 5 % from the data alone.
const (
	memoryDim = 32
	timeDim   = 8
	modelSeed = 1
)

var workloads = []workload{
	{
		// Paper's headline path: TGN under Cascade batching on a WIKI stream; only
		// here do the dependency table, TG-Diffuser, SG-Filter and ABS work, and the
		// GRU memory update is a large share of the step.
		Name:  "train_tgn_cascade",
		Model: "TGN", Sched: cascade.SchedCascade, Profile: "WIKI", Nodes: 1400,
		TrainEvents: 24000, TailEvents: 140000, BaseBatch: 140, FixedEpochs: 6, TrainShare: 0.5,
		Topology: topoSolo, ScoreRate: 100, IngestRate: 50, IngestBurst: 500,
	},
	{
		// Bypasses core: TGAT under fixed TGL batches, so a scheduler change must
		// move nothing; time sits in attention embed + backward, where a
		// tensor/nn/plan change shows first.
		Name:  "train_tgat_fixed",
		Model: "TGAT", Sched: cascade.SchedTGL, Profile: "WIKI", Nodes: 940,
		TrainEvents: 12000, TailEvents: 320000, BaseBatch: 90, FixedEpochs: 6, TrainShare: 0.5,
		Topology: topoSolo, ScoreRate: 100, IngestRate: 50, IngestBurst: 1500,
	},
	{
		// One server with WAL (SyncBatch) on a ~1e3-node REDDIT stream:
		// JSON/HTTP/admission/fsync fixed costs dominate; reads and writes are
		// reported apart so a gain in one that costs the other shows.
		Name:  "serve_solo_dense",
		Model: "TGN", Sched: cascade.SchedCascade, Profile: "REDDIT", Nodes: 1300,
		TrainEvents: 16000, TailEvents: 125000, BaseBatch: 100, FixedEpochs: 4, TrainShare: 0.3,
		Topology: topoSoloWAL, ScoreRate: 100, IngestRate: 50, IngestBurst: 400,
	},
	{
		// Same server without WAL on a ~3e4-node WIKI-TALK stream: bypasses wal,
		// and whole-state Snapshot/Restore cloning dominates /score, so it varies
		// working-set size. 40 /score per second keep the model lock taken about
		// 30 % of the time: at 60 it was half, and the median /ingest flipped
		// from run to run between finding the lock free and waiting for a /score.
		Name:  "serve_solo_wide",
		Model: "TGN", Sched: cascade.SchedCascade, Profile: "WIKI-TALK", Nodes: 28600,
		TrainEvents: 16000, TailEvents: 200000, BaseBatch: 100, FixedEpochs: 4, TrainShare: 0.3,
		Topology: topoSolo, ScoreRate: 40, IngestRate: 30, IngestBurst: 200, PrefillEvents: 120000,
	},
	{
		// Router over 2 shards, each primary + semi-sync standby with WAL, same
		// stream and rates as serve_solo_dense: the only path through cluster, so
		// row by row it isolates router + replication cost.
		Name:  "serve_cluster",
		Model: "TGN", Sched: cascade.SchedCascade, Profile: "REDDIT", Nodes: 1300,
		TrainEvents: 16000, TailEvents: 80000, BaseBatch: 100, FixedEpochs: 4, TrainShare: 0.3,
		Topology: topoCluster, ScoreRate: 100, IngestRate: 50, IngestBurst: 100,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// scaled shrinks the workload's event and node counts; the tests run every
// workload at about 1/20 scale. Rates and shares stay.
func (w workload) scaled(f float64) workload {
	if f >= 1 {
		return w
	}
	shrink := func(n, floor int) int {
		n = int(float64(n) * f)
		if n < floor {
			n = floor
		}
		return n
	}
	w.Nodes = shrink(w.Nodes, 64)
	w.TrainEvents = shrink(w.TrainEvents, 600)
	w.PrefillEvents = int(float64(w.PrefillEvents) * f)
	w.IngestBurst = shrink(w.IngestBurst, 10)
	w.TailEvents = w.PrefillEvents + shrink(w.TailEvents-w.PrefillEvents, 400*eventsPerIngest)
	w.BaseBatch = shrink(w.BaseBatch, 10)
	return w
}

// metric is one reported number.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// metricSet collects a run's metrics and rejects a name reported twice.
type metricSet struct {
	list []metric
	seen map[string]bool
}

func (m *metricSet) put(name string, value float64, unit string) {
	if m.seen == nil {
		m.seen = make(map[string]bool)
	}
	if m.seen[name] {
		panic("benchmark: metric " + name + " reported twice")
	}
	m.seen[name] = true
	m.list = append(m.list, metric{name, value, unit})
}

func (m *metricSet) sorted() []metric {
	out := append([]metric(nil), m.list...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
