// Package coordsample implements coordinated weighted sampling for
// estimating aggregates over multiple weight assignments, after Cohen,
// Kaplan, and Sen, "Coordinated Weighted Sampling: Estimation of
// Multiple-Assignment Aggregates" (VLDB 2009).
//
// # Data model
//
// Data is a set of keys, each carrying one nonnegative weight per
// *assignment* — a time period, a location, or a numeric attribute. Over
// such data one asks subpopulation sum queries Σ_{i: d(i)} f(i), where f is
// a single-assignment weight or a multiple-assignment function such as
// max_R, min_R, or the L1 difference, and the predicate d may be chosen
// *after* the summary was built.
//
// # Two pipelines
//
// Dispersed weights (assignments observed at different times/places): run
// one AssignmentSketcher per assignment — they never communicate; samples
// are coordinated purely through the shared hash seed — then
// CombineDispersed and query the summary:
//
//	cfg := coordsample.Config{Family: coordsample.IPPS, Mode: coordsample.SharedSeed, Seed: 1, K: 1024}
//	s0 := coordsample.NewAssignmentSketcher(cfg, 0) // e.g. at site A
//	s1 := coordsample.NewAssignmentSketcher(cfg, 1) // e.g. at site B
//	// ... s0.Offer(key, w) over period-1 data, s1.Offer over period-2 data ...
//	sum, err := coordsample.CombineDispersed(cfg, []*coordsample.BottomK{s0.Sketch(), s1.Sketch()})
//	if err != nil { ... } // sketches built under a different configuration
//	change := sum.RangeLSet(nil).Estimate(func(key string) bool { return interesting(key) })
//
// Sketches are wire-portable: every sketch built through the pipelines
// carries a configuration fingerprint, EncodeSketch/DecodeSketches ship it
// between processes as a segment (the one sample file format, which the
// durable store and GET /sketches share), and CombineDecoded reassembles
// shipped sketches into a queryable summary, rejecting any built under a
// mismatched configuration (see cmd/cws-merge and ExampleCombineDecoded).
//
// Colocated weights (full weight vector available per key): feed a
// ColocatedSummarizer and use the inclusive estimators, which exploit every
// key in the combined summary and support vector predicates:
//
//	cs := coordsample.NewColocatedSummarizer(cfg, 3)
//	// ... cs.Offer(key, []float64{bytes, packets, flows}) ...
//	summary := cs.Summary()
//	bytes := summary.Inclusive(coordsample.SingleOf(0)).Estimate(nil)
//
// Estimators are unbiased (Horvitz–Thompson on partitioned sample spaces);
// coordination makes multiple-assignment estimates orders of magnitude
// tighter than independent samples while keeping a valid weighted sample per
// assignment.
//
// Beyond the batch pipelines, NewServer runs the whole stack as a resident
// HTTP service (cmd/cws-serve): concurrent lane ingestion into epochs,
// freeze-and-swap snapshots, online queries bit-identical to the offline
// pipeline, and segment export (GET /sketches) that cws-merge reads.
//
// See DESIGN.md for the full system inventory, docs/paper-map.md for the
// paper-section-to-symbol map, and EXPERIMENTS.md for the reproduced
// evaluation.
package coordsample

import (
	"io"
	"log/slog"
	"net/http"

	"coordsample/internal/cluster"
	"coordsample/internal/core"
	"coordsample/internal/dataset"
	"coordsample/internal/estimate"
	"coordsample/internal/faults"
	"coordsample/internal/obs"
	"coordsample/internal/rank"
	"coordsample/internal/server"
	"coordsample/internal/shard"
	"coordsample/internal/sketch"
	"coordsample/internal/store"
)

// Core configuration and pipeline types (see the package documentation).
type (
	// Config selects the rank family, coordination mode, hash seed, and
	// per-assignment sample size k.
	Config = core.Config
	// AssignmentSketcher sketches one assignment of dispersed data.
	AssignmentSketcher = core.AssignmentSketcher
	// ColocatedSummarizer summarizes colocated (key, vector) records.
	ColocatedSummarizer = core.ColocatedSummarizer
	// LaneSketcher sketches one assignment of dispersed data across
	// concurrent producer lanes — a private builder per lane under one
	// shared admission threshold; the frozen sketch is bit-identical to
	// AssignmentSketcher's.
	LaneSketcher = core.LaneSketcher
	// MultiSketcher fronts one LaneSketcher per assignment, hashing each
	// offered key once (shared-seed coordination hashes a whole weight
	// vector once).
	MultiSketcher = core.MultiSketcher
	// Lane is one concurrent ingest lane of a LaneSketcher: a
	// single-producer front-end. Distinct lanes offer concurrently, and the
	// frozen sketch is bit-identical regardless of how the stream was
	// interleaved across lanes.
	Lane = shard.Lane
	// MultiLane is one ingest lane across every assignment of a
	// MultiSketcher, hashing each key once per offer.
	MultiLane = shard.MultiLane
	// PoissonSketcher sketches one assignment with a Poisson-τ sample.
	PoissonSketcher = core.PoissonSketcher
	// PoissonSketch is a Poisson-τ sketch of one weight assignment.
	PoissonSketch = sketch.Poisson
	// Dispersed answers queries over combined per-assignment sketches.
	Dispersed = estimate.Dispersed
	// Colocated answers queries with the inclusive estimators.
	Colocated = estimate.Colocated
	// AWSummary maps sampled keys to unbiased adjusted f-weights.
	AWSummary = estimate.AWSummary
	// AggFunc identifies the aggregate f (single, max, min, L1, ℓ-th largest).
	AggFunc = estimate.AggFunc
	// TopLFunc is a custom top-ℓ dependent aggregate for dispersed queries.
	TopLFunc = estimate.TopLFunc
	// Estimator is a pluggable estimation strategy over dispersed
	// summaries; see AWEstimator and DiscardedEstimator.
	Estimator = estimate.Estimator
	// SampleView is the cross-assignment sample view estimators consume:
	// per union key, the per-assignment weights, ranks, and inclusion
	// thresholds (built with Dispersed.View).
	SampleView = estimate.SampleView
	// UnknownEstimatorError is returned by ParseEstimator for names it
	// does not recognize.
	UnknownEstimatorError = estimate.UnknownEstimatorError
	// BottomK is a bottom-k (order) sketch of one weight assignment.
	BottomK = sketch.BottomK
	// Pred selects a subpopulation by key.
	Pred = dataset.Pred
	// VecPred selects a subpopulation by key and full weight vector
	// (colocated summaries only).
	VecPred = estimate.VecPred
	// Dataset is an in-memory multi-assignment weighted set.
	Dataset = dataset.Dataset
	// DatasetBuilder accumulates (assignment, key, weight) observations.
	DatasetBuilder = dataset.Builder
	// Family is a monotone rank-distribution family.
	Family = rank.Family
	// Coordination is the joint distribution of a key's rank vector.
	Coordination = rank.Coordination
	// DecodedSketch is a sketch read back from a segment: construction
	// metadata plus the fingerprint-verified bottom-k sketch.
	DecodedSketch = sketch.Decoded
	// FingerprintMismatchError reports an attempt to combine or ship
	// sketches built under different configurations.
	FingerprintMismatchError = sketch.FingerprintMismatchError
	// CoordinationMismatchError reports shipped sketches whose rank
	// family, coordination mode, or seed disagree.
	CoordinationMismatchError = core.CoordinationMismatchError
)

// Rank families (Section 3 of the paper).
const (
	// IPPS ranks make bottom-k sketches priority samples and Poisson
	// sketches IPPS samples; the recommended default.
	IPPS = rank.IPPS
	// EXP ranks make bottom-k sketches weighted samples without
	// replacement.
	EXP = rank.EXP
)

// Coordination modes (Section 4 of the paper).
const (
	// SharedSeed is the consistent coordination that minimizes summary size
	// (Theorem 4.2) and works for dispersed data; the recommended default.
	SharedSeed = rank.SharedSeed
	// Independent draws independent per-assignment ranks (the baseline).
	Independent = rank.Independent
	// IndependentDifferences is the EXP-only consistent construction whose
	// k-mins collision probability equals weighted Jaccard similarity
	// (Theorem 4.1); colocated data only.
	IndependentDifferences = rank.IndependentDifferences
)

// NewAssignmentSketcher creates a dispersed-model sketcher for assignment b.
// Sketchers sharing cfg produce coordinated samples with no communication.
func NewAssignmentSketcher(cfg Config, b int) *AssignmentSketcher {
	return core.NewAssignmentSketcher(cfg, b)
}

// CombineDispersed merges per-assignment sketches (in assignment order) into
// a queryable dispersed summary. Fingerprinted sketches (everything built
// through the pipeline constructors) are verified against cfg; a sketch
// built under a different Family, Mode, Seed, or assignment index yields a
// *FingerprintMismatchError instead of a silently corrupt summary.
func CombineDispersed(cfg Config, sketches []*BottomK) (*Dispersed, error) {
	return core.CombineDispersed(cfg, sketches)
}

// NewColocatedSummarizer creates a colocated-model summarizer over
// numAssignments weight assignments.
func NewColocatedSummarizer(cfg Config, numAssignments int) *ColocatedSummarizer {
	return core.NewColocatedSummarizer(cfg, numAssignments)
}

// NewDatasetBuilder creates an in-memory dataset builder with the given
// assignment names; Add accumulates raw observations into per-key weights.
func NewDatasetBuilder(assignments ...string) *DatasetBuilder {
	return dataset.NewBuilder(assignments...)
}

// SummarizeDispersed runs the dispersed pipeline over an in-memory dataset.
func SummarizeDispersed(cfg Config, ds *Dataset) *Dispersed {
	return core.SummarizeDispersed(cfg, ds)
}

// NewLaneSketcher creates a concurrent dispersed-model sketcher for
// assignment b with the given number of ingest lanes (lanes ≤ 0 selects
// GOMAXPROCS). Each lane returned by Lanes() is a single-producer front-end
// with a private bottom-k builder; distinct lanes offer concurrently and
// prune against one shared admission threshold (items that certainly miss
// the bottom-k are dropped with one multiply/compare). Sketch() merges the
// lanes into the exact single-stream result — bit-identical, pruning
// included, however the stream was split across lanes — and is terminal.
func NewLaneSketcher(cfg Config, b, lanes int) *LaneSketcher {
	return core.NewLaneSketcher(cfg, b, lanes)
}

// NewMultiSketcher creates the multi-assignment ingest front-end: one lane
// sketcher per assignment index 0..assignments-1 under cfg, with lane j of
// every assignment exposed as one MultiLane via Lanes() (lanes ≤ 0 selects
// GOMAXPROCS); a single producer takes Lanes()[0]. A MultiLane's Offer
// ingests dispersed (assignment, key, weight) observations; its
// OfferVector ingests a key's whole weight vector, hashing the key exactly
// once under shared-seed coordination. Sketches() freezes all assignments.
func NewMultiSketcher(cfg Config, assignments, lanes int) *MultiSketcher {
	return core.NewMultiSketcher(cfg, assignments, lanes)
}

// SummarizeDispersedParallel runs the dispersed pipeline with the dataset's
// rows split across lanes concurrent producers (lanes ≤ 0 selects
// GOMAXPROCS). The summary is identical to SummarizeDispersed's — lanes
// change wall-clock time, never the sample.
func SummarizeDispersedParallel(cfg Config, ds *Dataset, lanes int) *Dispersed {
	return core.SummarizeDispersedParallel(cfg, ds, lanes)
}

// SummarizeColocated runs the colocated pipeline over an in-memory dataset.
func SummarizeColocated(cfg Config, ds *Dataset) *Colocated {
	return core.SummarizeColocated(cfg, ds)
}

// SummarizeColocatedFixed runs the colocated pipeline under a fixed budget
// of |W|·k distinct keys, growing the embedded sample size ℓ ≥ k adaptively
// (Section 4). Returns the summary and the chosen ℓ.
func SummarizeColocatedFixed(cfg Config, ds *Dataset) (*Colocated, int) {
	return core.SummarizeColocatedFixed(cfg, ds)
}

// KMinsJaccard estimates the weighted Jaccard similarity of assignments b1
// and b2 with a k-mins sketch under independent-differences ranks
// (Theorem 4.1); cfg.K is the number of coordinates.
func KMinsJaccard(cfg Config, ds *Dataset, b1, b2 int) float64 {
	return core.KMinsJaccard(cfg, ds, b1, b2)
}

// MergeSketches combines bottom-k sketches of *disjoint* shards of one
// assignment into the exact bottom-k sketch of the union — the distributed
// pattern: each site sketches its shard, a combiner merges.
//
// Contract: all sketches must have been built under the same Config —
// identical Family, Mode, Seed, and K — and for the same assignment. This
// is now verified: every sketch built through the pipeline constructors
// carries a fingerprint digesting exactly those parameters, and a mismatch
// (incomparable ranks from different hash functions, or different k)
// returns a *FingerprintMismatchError instead of silently producing a
// sample that is NOT a bottom-k sample of the union. A standalone,
// unfingerprinted sketch, such as a BottomK.Prefix, is refused too.
// Disjointness remains the caller's responsibility, but its most common
// violation is detected: if both copies of a key survive into the merged
// sample, the merge panics with "offered more than once" rather than
// double-counting the key in every downstream estimate. An overlapping key
// that does not survive is indistinguishable from duplicate data.
func MergeSketches(sketches ...*BottomK) (*BottomK, error) {
	return sketch.Merge(sketches...)
}

// NewPoissonSketcher creates a dispersed-model Poisson sketcher for
// assignment b with threshold τ; use PoissonTau to target an expected size.
func NewPoissonSketcher(cfg Config, b int, tau float64) *PoissonSketcher {
	return core.NewPoissonSketcher(cfg, b, tau)
}

// PoissonTau returns the threshold τ whose Poisson sketch of the given
// weights has expected size k.
func PoissonTau(family Family, weights []float64, k float64) float64 {
	return core.PoissonTau(family, weights, k)
}

// CombineDispersedPoisson merges per-assignment Poisson sketches into a
// queryable dispersed summary, verifying sketch fingerprints against cfg
// exactly as CombineDispersed does.
func CombineDispersedPoisson(cfg Config, sketches []*PoissonSketch) (*Dispersed, error) {
	return core.CombineDispersedPoisson(cfg, sketches)
}

// EncodeSketch writes the bottom-k sketch of assignment b, built under cfg,
// as a one-sketch segment file: the full construction configuration and
// its fingerprint, the conditioning ranks, and the entries, closed by a
// checksum. The sketch's fingerprint is checked against cfg before
// anything is written, so a file can never misstate its provenance.
func EncodeSketch(w io.Writer, cfg Config, b int, s *BottomK) error {
	meta := sketch.WireMeta{Family: cfg.Family, Mode: cfg.Mode, Seed: cfg.Seed, Assignment: b}
	_, err := sketch.EncodeSegment(w, []sketch.WireMeta{meta}, []*BottomK{s})
	return err
}

// DecodeSketches reads one segment file — written by EncodeSketch, served
// by GET /sketches, or persisted by an EpochStore — verifies its checksum,
// revalidates every structural invariant, and verifies each stored
// fingerprint against the stored configuration. The decoded sketches are
// exactly as trustworthy as ones built in-process.
func DecodeSketches(r io.Reader) ([]*DecodedSketch, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return sketch.DecodeSegment(data)
}

// CombineDecoded assembles decoded sketches into a queryable dispersed
// summary — the distributed combiner run on shipped summaries alone.
// Sketches sharing an assignment index are shard sketches and are merged
// (fingerprint-verified); the assignments present must cover 0..max.
// Sketches whose Family, Mode, or Seed disagree are rejected with a
// *CoordinationMismatchError; a shard built under a different K than its
// assignment's first sketch with a *FingerprintMismatchError. Both errors'
// Index is the offending sketch's position in decoded.
func CombineDecoded(decoded []*DecodedSketch) (*Dispersed, error) {
	return core.CombineDecoded(decoded)
}

// SummarizeDispersedPoisson runs the dispersed Poisson pipeline over an
// in-memory dataset with expected per-assignment sample size cfg.K.
func SummarizeDispersedPoisson(cfg Config, ds *Dataset) *Dispersed {
	return core.SummarizeDispersedPoisson(cfg, ds)
}

// SummarizeColocatedPoisson runs the colocated pipeline with embedded
// Poisson samples of expected size cfg.K per assignment.
func SummarizeColocatedPoisson(cfg Config, ds *Dataset) *Colocated {
	return core.SummarizeColocatedPoisson(cfg, ds)
}

// Online serving layer (cmd/cws-serve).
type (
	// Server is the resident sketch service: an http.Handler that ingests
	// weighted observations into epochs of concurrent lane sketchers
	// and answers aggregate queries from immutable frozen snapshots. See
	// the internal/server package documentation for the epoch lifecycle
	// and memory model.
	Server = server.Server
	// ServerConfig configures a Server: the sampling Config shared with
	// coordinating sites, the number of assignments, and the ingest lane
	// count.
	ServerConfig = server.Config
	// ServerOffer is one weighted observation as carried by POST /offer.
	ServerOffer = server.Offer
	// EpochStore is the durable epoch store: it persists every frozen
	// epoch's sketch set (atomic segment writes plus a checksummed
	// manifest), recovers acknowledged epochs bit-identically after any
	// crash, and retains a ring of recent epochs for epoch-range
	// ("time-travel") queries beside one cumulative segment — the
	// server's own merge once the ring is full — so disk stays bounded.
	// See the internal/store package documentation for the layout and
	// recovery invariants.
	EpochStore = store.Store
	// StoreConfig configures OpenStore: directory, retention ring size,
	// and the sampling configuration the stored sketches must match.
	StoreConfig = store.Config
	// StoreCorruptError reports acknowledged store state that failed
	// validation on recovery (the store refuses to open rather than serve
	// corrupt sketches).
	StoreCorruptError = store.CorruptError
	// StoreMismatchError reports a store opened under a configuration that
	// does not match its contents.
	StoreMismatchError = store.MismatchError
)

// NewServer creates the online sketch server. After any freeze, its query
// answers are bit-identical to running the offline dispersed pipeline over
// every offer so far, and GET /sketches exports segment files that
// cws-merge combines like any other site's. With a StoreConfig-opened
// EpochStore attached, freezes are durable and the server recovers every
// acknowledged epoch on restart; GET /query?epochs=lo..hi answers any
// aggregate over a retained window of epochs. Close stops ingestion;
// queries keep serving the last snapshot.
func NewServer(cfg ServerConfig) (*Server, error) {
	return server.New(cfg)
}

// OpenStore opens (creating if absent) a durable epoch store, recovering
// and strictly revalidating every acknowledged epoch. Attach it to a
// server via ServerConfig.Store, or read it offline with cws-merge
// -store. Opening with a zero Sample/Assignments is a read-only open that
// accepts whatever configuration the store holds.
func OpenStore(cfg StoreConfig) (*EpochStore, error) {
	return store.Open(cfg)
}

// Fault injection and the cluster serving layer (cmd/cws-serve -peers).
type (
	// FaultSet is a parsed set of named injectable fault points, threaded
	// through ServerConfig.Faults / ClusterConfig.Faults (and the -faults
	// flag of cws-serve). A nil *FaultSet — the production state — injects
	// nothing and costs one nil check per guarded operation. See the
	// internal/faults package documentation for the spec grammar.
	FaultSet = faults.Set
	// ClusterRouter is the scatter-gather front end over a set of
	// cws-serve peers: exact merged answers when every peer responds,
	// graceful degradation (degraded=true plus a coverage fraction) when
	// some do not, and a two-phase cluster-wide epoch freeze. See the
	// internal/cluster package documentation for the exactness argument
	// and failure policy.
	ClusterRouter = cluster.Router
	// ClusterConfig configures a ClusterRouter: the ordered peer list
	// (the order IS the keyspace partition), this node's index, the
	// shared sampling configuration, and its observability sinks. The
	// retry/hedge/health policy is fixed (see internal/cluster).
	ClusterConfig = cluster.Config
)

// ParseFaults parses a fault-injection spec ("point:err,on=3;other:latency=50ms").
// The empty spec returns a nil set, which injects nothing.
func ParseFaults(spec string) (*FaultSet, error) {
	return faults.Parse(spec)
}

// NewClusterRouter creates the scatter-gather router over cfg.Peers. A
// router on a peer reads that node's Server in process (cfg.Local): build
// the Server first, with an OwnsKey that rejects other peers' keys. Mount
// the router next to it (/cluster/*), Start the health prober, and Close.
func NewClusterRouter(cfg ClusterConfig) (*ClusterRouter, error) {
	return cluster.New(cfg)
}

// Observability layer: the metrics registry behind GET /metrics, the
// request-trace ring behind GET /debug/traces, and the zero-allocation
// latency histograms both are built on. One registry and one ring are
// typically shared by every layer of a process (ServerConfig.Metrics/
// Traces, ClusterConfig.Metrics/Traces), so a single scrape covers the
// server, the store, and the cluster router.
type (
	// MetricsRegistry collects named series — counters, gauges, latency
	// histograms — and renders them in the Prometheus text exposition
	// format. It has no process-global state: two servers in one process
	// get two registries.
	MetricsRegistry = obs.Registry
	// TraceRing retains the most recent per-request stage-timing traces.
	TraceRing = obs.TraceRing
	// LatencyHistogram is a fixed-size, lock-free, log-bucketed latency
	// histogram; Record is zero-allocation and safe for any concurrency.
	LatencyHistogram = obs.Histogram
)

// NewMetricsRegistry creates an empty metrics registry. Mount its Handler
// (or pass it as ServerConfig.Metrics — the server mounts GET /metrics
// itself).
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewTraceRing creates a ring retaining the last capacity request traces.
func NewTraceRing(capacity int) *TraceRing { return obs.NewTraceRing(capacity) }

// NewLogger builds the structured logger cws-serve's -log-level and
// -log-format flags configure: level is debug, info, warn, or error;
// format is text or json. Components tag their records via the Log config
// fields (ServerConfig.Log, StoreConfig.Log, ClusterConfig.Log).
func NewLogger(w io.Writer, level, format string) (*slog.Logger, error) {
	return obs.NewLogger(w, level, format)
}

// NewHTTPServer wraps a handler in an http.Server hardened for the open
// internet: header/read/idle timeouts so idle or deliberately slow
// (Slowloris) connections cannot pin goroutines forever. cws-serve uses
// it; embedders mounting a Server themselves should too.
func NewHTTPServer(addr string, handler http.Handler) *http.Server {
	return server.NewHTTPServer(addr, handler)
}

// Aggregate-function constructors.
var (
	// SingleOf selects f(i) = w^(b)(i).
	SingleOf = estimate.SingleOf
	// MaxOf selects f(i) = w^(maxR)(i) (max-dominance); empty R means all.
	MaxOf = estimate.MaxOf
	// MinOf selects f(i) = w^(minR)(i) (min-dominance); empty R means all.
	MinOf = estimate.MinOf
	// RangeOf selects f(i) = w^(L1 R)(i), the L1 difference contribution.
	RangeOf = estimate.RangeOf
	// TotalOf selects f(i) = w^(sumR)(i) = Σ_{b∈R} w^(b)(i), the total
	// weight across assignments.
	TotalOf = estimate.TotalOf
	// LthLargestOf selects f(i) = w^(ℓth-largest R)(i).
	LthLargestOf = estimate.LthLargestOf
)

// Estimator families for dispersed queries. AWEstimator is the paper's
// adjusted-weight template estimators (s-set/l-set); DiscardedEstimator
// additionally leverages samples the union-threshold conditioning discards
// (arXiv:0903.0625) for tighter totals and pair L1/Jaccard estimates at
// the same sketch size. Both are stateless and safe for concurrent use.
var (
	AWEstimator        = estimate.AWEstimator
	DiscardedEstimator = estimate.DiscardedEstimator
	// ParseEstimator resolves an estimator name ("aw", "discarded"; ""
	// selects the default AW family).
	ParseEstimator = estimate.ParseEstimator
)

// EstimatorNames lists the recognized estimator names for usage messages.
const EstimatorNames = estimate.EstimatorNames
