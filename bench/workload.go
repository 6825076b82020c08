// Package bench is the repository's one end-to-end benchmark. It builds
// nothing itself: given a cws-serve binary it starts real server processes,
// drives them over loopback TCP from this one load-generator process,
// verifies every answer, and reports each metric by name with its unit.
// Layers are measured from outside, by timing calls into each package's
// public functions (see layers.go); the program's code is not changed.
//
// See README.md beside this file for the metric glossary, the workloads and
// the written-down interactions between layer and end-to-end metrics.
package bench

import "fmt"

// RequestOffers is the number of offers in one binary /ingest request.
const RequestOffers = 8192

// NominalSeconds is the --seconds value the per-round sizes below are
// calibrated for on the build machine (2 hardware threads): with it, the
// timed sections of a workload add up to 20–30 s. Other values scale the
// per-round sizes, never the round count: the sample minima stay.
const NominalSeconds = 20

// Workload describes one traffic mix. Sizes are per assignment-set, in
// offers (one offer = one key's weight in one assignment).
type Workload struct {
	Name string
	Why  string

	Assignments int // |W|
	K           int // sample size per assignment
	Retain      int // epochs kept individually queryable
	Peers       int // 1 = single node; >1 = cluster of that many processes

	IngestConns   int  // concurrent ingest connections (closed loop)
	Background    bool // one more connection querying beside ingest and freeze
	PreloadEpochs int  // epochs ingested and frozen during set-up
	PreloadOffers int  // offers per preload epoch
	RoundOffers   int  // offers ingested per round
	Cold, Warm    int  // queries per round after the freeze
	RangeCold     int  // how many of the cold queries ask an epochs=lo..hi window
	AccuracyEpoch int  // single retained epochs the accuracy battery visits beside the whole stream

	// MinCold and MinWarm are the query sample minima of a full run.
	MinCold, MinWarm int
}

// Rounds is the number of rounds of every workload at full scale, and
// WarmupRounds how many of the first are run but not measured. 304 measured
// rounds keep every sample minimum: ≥300 freezes and ingest rounds, ≥150
// recoveries (every 2nd round), ≥1 000 cold and ≥5 000 warm queries (4 and
// 20 per round), ≥500 ingest requests.
const (
	Rounds       = 320
	WarmupRounds = 16
)

// Minima are the sample counts a full-scale run must reach for a metric to
// be printed; a run under a minimum fails. The query minima are per
// workload (MinCold, MinWarm): 1 000 and 5 000 on a single node.
var Minima = struct{ Freezes, Recoveries, IngestRequests, IngestRounds int }{
	Freezes: 300, Recoveries: 150, IngestRequests: 500, IngestRounds: 300,
}

// Workloads are the benchmark's traffic mixes. Every one runs durable
// (-data-dir) under IPPS ranks and shared-seed coordination.
var Workloads = []Workload{
	{
		Name: "ingest-steady",
		Why:  "large epochs (56×k keys per assignment): the hash→rank→prune path and the binary /ingest decode do almost all the work, the read path little",
		// 57 344 keys per assignment per epoch: one bottom-k builder admits
		// about 9 %, so the producer prunes the large majority by hash.
		Assignments: 4, K: 1024, Retain: 8, Peers: 1,
		IngestConns: 2, PreloadEpochs: 1, PreloadOffers: 4 << 20, RoundOffers: 224 << 10,
		Cold: 4, Warm: 20, AccuracyEpoch: 8, MinCold: 1000, MinWarm: 5000,
	},
	{
		Name: "epoch-churn",
		Why:  "small epochs (8×k keys per assignment) beside a querying connection: admission, freeze, merge, segment encode, persist, compaction and recovery dominate, and reads run beside writes",
		// 8 192 keys per assignment per epoch: a builder admits about 38 %,
		// so the admission and heap path runs where ingest-steady prunes.
		Assignments: 8, K: 1024, Retain: 8, Peers: 1,
		IngestConns: 1, Background: true, PreloadEpochs: 8, PreloadOffers: 64 << 10, RoundOffers: 64 << 10,
		Cold: 4, Warm: 20, AccuracyEpoch: 8, MinCold: 1000, MinWarm: 5000,
	},
	{
		Name:        "query-mix",
		Why:         "tiny epochs that only empty the memo, then cold and warm queries, most of the cold ones over epoch windows: snapshot pin, range merge, combine, summary build, predicate scan and JSON encode do the work",
		Assignments: 8, K: 1024, Retain: 16, Peers: 1,
		IngestConns: 1, PreloadEpochs: 16, PreloadOffers: 128 << 10, RoundOffers: 16 << 10,
		// Three of four cold queries ask a window, so that the median cold
		// query is a window query and not the edge between two kinds.
		Cold: 4, Warm: 20, RangeCold: 3, AccuracyEpoch: 8, MinCold: 1000, MinWarm: 5000,
	},
	{
		Name:        "cluster-scatter",
		Why:         "three peer processes behind peer 0's router: every query fetches, decodes and merges every peer's sketches and waits for the slowest, and freezes are two-phase",
		Assignments: 4, K: 1024, Retain: 8, Peers: 3,
		IngestConns: 1, PreloadEpochs: 1, PreloadOffers: 2 << 20, RoundOffers: 48 << 10,
		// A cluster query costs the same cold or warm (the router caches
		// nothing) and some 8 ms with three peers on two cores, so the
		// battery is 1 + 2 per round, the minima are 300 and 600, and the
		// accuracy battery visits two single epochs, not eight: the run's
		// time cap leaves no room for more.
		Cold: 1, Warm: 2, AccuracyEpoch: 2, MinCold: 300, MinWarm: 600,
	},
}

// lanes is the number of ingest connections: IngestConns to a single node,
// one per peer of a cluster (IngestConns then counts the senders).
func (w Workload) lanes() int {
	if w.Peers > 1 {
		return w.Peers
	}
	return w.IngestConns
}

// Find returns the workload of the given name.
func Find(name string) (Workload, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("unknown workload %q", name)
}

// scaled returns w with its per-round and preload sizes multiplied by size
// (rounded to whole requests per ingest connection, at least one each).
func (w Workload) scaled(size float64) Workload {
	unit := RequestOffers * w.IngestConns
	round := func(n int) int {
		m := int(float64(n)*size/float64(unit)+0.5) * unit
		if m < unit {
			m = unit
		}
		return m
	}
	w.PreloadOffers = round(w.PreloadOffers)
	w.RoundOffers = round(w.RoundOffers)
	return w
}
