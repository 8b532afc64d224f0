// Package api defines the JSON schema shared by the ctad daemon
// (internal/server) and the -json output modes of cmd/evaluate and
// cmd/ctacluster. CLI and HTTP render the same structs through the same
// deterministic encoder, so a script consuming one can consume the
// other unchanged, and the daemon's byte-level response cache stays
// sound (equal inputs → equal bytes).
//
// Paper mapping: the payloads are the wire form of the evaluation
// artifacts — Table 1/Table 2 rows and the Figure 12/13 metric series
// of Section 5; the schema itself is reproduction infrastructure beyond
// the paper's scope.
package api

// SimulateRequest asks for one simulation: an application under one
// scheme on one platform. The zero scheme is BSL; Agents, Bypass and
// Prefetch only apply to the CLU scheme (agent-based clustering).
type SimulateRequest struct {
	App    string `json:"app"`
	Arch   string `json:"arch"`
	Scheme string `json:"scheme,omitempty"` // BSL (default) | RD | CLU
	// Agents throttles the CLU scheme to this many active agents per SM
	// (0 = the maximum allowable, plain CLU).
	Agents   int  `json:"agents,omitempty"`
	Bypass   bool `json:"bypass,omitempty"`
	Prefetch bool `json:"prefetch,omitempty"`
	// Seed feeds the engine; 0 means the deterministic default (1).
	Seed      int64 `json:"seed,omitempty"`
	MaxCycles int64 `json:"max_cycles,omitempty"`
	// TimeoutMS bounds the request server-side; 0 means the daemon's
	// default deadline.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Swizzle names a CTA tile swizzle (internal/swizzle, GET
	// /v1/transforms lists the names) applied to the application before
	// any scheme transform. It is result-affecting — the remap changes
	// every cache statistic and cycle count — so it is a full cache-key
	// field. Empty means the
	// daemon's configured default (normally none).
	Swizzle string `json:"swizzle,omitempty"`
	// Chiplets splits the platform into that many interposer-linked dies
	// (arch.WithChiplets, DESIGN.md §13) before simulating; 0 means the
	// daemon's configured default (normally monolithic). Result-affecting
	// like Swizzle: the derived descriptor's fields enter the cache key.
	Chiplets int `json:"chiplets,omitempty"`
}

// MetricRow is one nvprof-style counter (internal/prof names).
type MetricRow struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// SimulateResponse is one simulation's outcome. Metrics carries the
// full nvprof-style counter table in the fixed internal/prof order.
type SimulateResponse struct {
	App                string      `json:"app"`
	Arch               string      `json:"arch"`
	Scheme             string      `json:"scheme"`
	Swizzle            string      `json:"swizzle,omitempty"`
	Kernel             string      `json:"kernel"`
	Cycles             int64       `json:"cycles"`
	L1HitRate          float64     `json:"l1_hit_rate"`
	L2ReadTransactions uint64      `json:"l2_read_transactions"`
	AchievedOccupancy  float64     `json:"achieved_occupancy"`
	Metrics            []MetricRow `json:"metrics"`
}

// SweepRequest asks for the paper's evaluation sweep (Figures 12/13):
// every requested app under all six schemes per platform. Empty Arch
// means all four Table 1 platforms; empty Apps means the full Table 2
// set. Parallelism is a server concern and deliberately absent — sweep
// results are byte-identical for every worker count.
type SweepRequest struct {
	Arch      string   `json:"arch,omitempty"`
	Apps      []string `json:"apps,omitempty"`
	Quick     bool     `json:"quick,omitempty"`
	Seed      int64    `json:"seed,omitempty"`
	TimeoutMS int64    `json:"timeout_ms,omitempty"`
	// Swizzle applies the named CTA tile swizzle under every scheme of
	// the sweep (result-affecting, part of the sweep cache key).
	Swizzle string `json:"swizzle,omitempty"`
	// Chiplets runs the sweep on the chiplet variant of every selected
	// platform (arch.WithChiplets); 0 keeps the monolithic Table 1
	// models. Result-affecting, part of the sweep cache key.
	Chiplets int `json:"chiplets,omitempty"`
}

// SweepCell is one scheme's outcome for one app (eval.Cell).
type SweepCell struct {
	Scheme             string  `json:"scheme"`
	Cycles             int64   `json:"cycles"`
	Speedup            float64 `json:"speedup"`
	L2ReadTransactions uint64  `json:"l2_read_transactions"`
	L2Norm             float64 `json:"l2_norm"`
	L1HitRate          float64 `json:"l1_hit_rate"`
	AchievedOccupancy  float64 `json:"achieved_occupancy"`
	OccupancyNorm      float64 `json:"occupancy_norm"`
	Agents             int     `json:"agents,omitempty"`
}

// SweepAppResult is one app's scheme row, cells in Figure 12 legend
// order.
type SweepAppResult struct {
	App   string      `json:"app"`
	Cells []SweepCell `json:"cells"`
}

// SchemeGeoMean is a platform-level geometric-mean speedup for one
// scheme (the Figure 12 GM column).
type SchemeGeoMean struct {
	Scheme  string  `json:"scheme"`
	Speedup float64 `json:"speedup"`
}

// SweepPlatform groups one platform's results, apps in request order.
type SweepPlatform struct {
	Arch       string           `json:"arch"`
	Generation string           `json:"generation"`
	Results    []SweepAppResult `json:"results"`
	GeoMean    []SchemeGeoMean  `json:"geomean"`
}

// SweepResponse is the full evaluation matrix, platforms in request
// order.
type SweepResponse struct {
	Platforms []SweepPlatform `json:"platforms"`
}

// OptimizeRequest asks the Section 4.4 framework to categorize one app
// and apply the Figure 5 optimization decision.
type OptimizeRequest struct {
	App       string `json:"app"`
	Arch      string `json:"arch"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

// ProbeReport mirrors the framework's probe measurements
// (locality.Probes) for the fields the ctacluster CLI prints.
type ProbeReport struct {
	CoalescingDegree float64 `json:"coalescing_degree"`
	BaselineL1Hit    float64 `json:"baseline_l1_hit"`
	RedirectL1Hit    float64 `json:"redirect_l1_hit"`
	BaselineL2Txn    uint64  `json:"baseline_l2_txn"`
	RedirectL2Txn    uint64  `json:"redirect_l2_txn"`
	L1OffL2Txn       uint64  `json:"l1_off_l2_txn"`
}

// RunSummary is the headline outcome of one engine run.
type RunSummary struct {
	Kernel             string  `json:"kernel"`
	Cycles             int64   `json:"cycles"`
	L1HitRate          float64 `json:"l1_hit_rate"`
	L2ReadTransactions uint64  `json:"l2_read_transactions"`
}

// OptimizeResponse is the framework verdict plus the before/after
// simulation of the chosen transform.
type OptimizeResponse struct {
	App         string      `json:"app"`
	Arch        string      `json:"arch"`
	Category    string      `json:"category"`
	GroundTruth string      `json:"ground_truth"`
	Exploitable bool        `json:"exploitable"`
	Partition   string      `json:"partition"`
	Decision    string      `json:"decision"`
	Probes      ProbeReport `json:"probes"`
	Baseline    RunSummary  `json:"baseline"`
	Optimized   RunSummary  `json:"optimized"`
	Speedup     float64     `json:"speedup"`
	L2Ratio     float64     `json:"l2_ratio"`
}

// TableResponse is a report table (Table 1/Table 2) in structured form.
type TableResponse struct {
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
}

// ErrorResponse is the uniform error body every endpoint returns on
// failure.
type ErrorResponse struct {
	Error string `json:"error"`
}

// MetricsResponse is the daemon's /metrics payload: cache, dedup and
// queue counters plus the nvprof-style counter names internal/prof
// exports (so dashboards can discover the per-run metric schema).
// DiskCache is present only when the daemon runs with a persistent
// cache tier (-cache-dir).
type MetricsResponse struct {
	UptimeSeconds float64         `json:"uptime_seconds"`
	Cache         CacheStats      `json:"cache"`
	DiskCache     *DiskCacheStats `json:"disk_cache,omitempty"`
	Singleflight  FlightStats     `json:"singleflight"`
	Queue         QueueStats      `json:"queue"`
	ProfCounters  []string        `json:"prof_counters"`
}

// CacheStats mirrors rescache.Stats (kept here so clients need only
// this package to decode /metrics).
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
	MaxBytes  int64  `json:"max_bytes"`
}

// DiskCacheStats mirrors rescache.DiskStats: the persistent tier's
// counters. Corruptions counts entries that failed verification on read
// (each one quarantined and served as a miss); StaleTemps counts
// crash-leftover temporary files swept when the tier was opened.
type DiskCacheStats struct {
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Writes      uint64 `json:"writes"`
	WriteErrors uint64 `json:"write_errors"`
	Corruptions uint64 `json:"corruptions"`
	Quarantined uint64 `json:"quarantined"`
	StaleTemps  uint64 `json:"stale_temps"`
	Entries     int    `json:"entries"`
}

// FlightStats mirrors rescache.FlightStats.
type FlightStats struct {
	Leaders  uint64 `json:"leaders"`
	Joined   uint64 `json:"joined"`
	Inflight int    `json:"inflight"`
}

// QueueStats is the worker-pool view: Workers is the pool size, Active
// the jobs holding a worker, Waiting the jobs queued for one, and the
// counters accumulate over the daemon's lifetime.
type QueueStats struct {
	Workers   int    `json:"workers"`
	Active    int    `json:"active"`
	Waiting   int    `json:"waiting"`
	Completed uint64 `json:"completed"`
	Cancelled uint64 `json:"cancelled"`
	Rejected  uint64 `json:"rejected"`
	// Executions counts underlying computations actually run (cache
	// misses that led a flight); the 16-way dedup acceptance test
	// asserts this stays at one for an identical concurrent burst.
	Executions uint64 `json:"executions"`
}

// HealthResponse is the /healthz payload.
type HealthResponse struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// TransformsResponse is the GET /v1/transforms payload: the transform
// vocabulary a client can put in requests — scheme labels (the paper's
// clustering transforms plus baselines) and CTA tile swizzle names
// (internal/swizzle) — each sorted.
type TransformsResponse struct {
	Schemes  []string `json:"schemes"`
	Swizzles []string `json:"swizzles"`
}

// SwizzleCellResult is one mode of the clustering-vs-swizzling-vs-both
// comparison on one (app, arch): its measured outcome next to the L2
// reuse analyzer's windowed prediction for the same kernel.
type SwizzleCellResult struct {
	// Label identifies the mode: "BSL", "SWZ(<name>)", "CLU" or
	// "CLU+SWZ(<name>)".
	Label string `json:"label"`
	// Swizzle is the swizzle name applied in this mode ("" for none).
	Swizzle string `json:"swizzle,omitempty"`
	// PredictedFetches / PredictedShared are the analyzer's
	// window-compulsory L2 fetch count and cross-CTA shared-line
	// fraction for the exact kernel this mode simulates (absent for
	// clustered modes, whose placement-dependent traces the windowed
	// analyzer does not model).
	PredictedFetches uint64  `json:"predicted_fetches,omitempty"`
	PredictedShared  float64 `json:"predicted_shared,omitempty"`
	Cycles           int64   `json:"cycles"`
	Speedup          float64 `json:"speedup"`
	L2ReadTxn        uint64  `json:"l2_read_txn"`
	// L2Delta is the measured L2-read-transaction change vs the BSL
	// cell (negative = fewer transactions).
	L2Delta   float64 `json:"l2_delta"`
	L1HitRate float64 `json:"l1_hit_rate"`
}

// SwizzleComparison is the full three-way comparison for one
// (app, arch) cell of the matrix.
type SwizzleComparison struct {
	App  string `json:"app"`
	Arch string `json:"arch"`
	// Window and LineBytes echo the analyzer's occupancy-derived
	// co-residency window and line granularity.
	Window    int                 `json:"window"`
	LineBytes int                 `json:"line_bytes"`
	Cells     []SwizzleCellResult `json:"cells"`
	// PredictedBest / MeasuredBest name the swizzle the analyzer ranked
	// first (largest cross-CTA reuse fraction, identity the tie-winning
	// incumbent) and the one with the fewest
	// measured L2 read transactions; PredictionHit is their agreement —
	// the analyzer's score against internal/prof ground truth.
	PredictedBest string `json:"predicted_best"`
	MeasuredBest  string `json:"measured_best"`
	PredictionHit bool   `json:"prediction_hit"`
}

// SwizzleCompareResponse is the matrix `evaluate -swizzle-compare`
// emits (BENCH_swizzle.json), arch-major in request order.
type SwizzleCompareResponse struct {
	Comparisons []SwizzleComparison `json:"comparisons"`
}

// ChipletCellResult is one mode of the chiplet placement comparison on
// one (app, chiplet-arch) cell: cycles next to the interposer counters
// that show whether the mode kept sharers on one die.
type ChipletCellResult struct {
	// Label identifies the mode: "BSL", "CLU", "SWZ(dieblock)" or
	// "CLU+SWZ(dieblock)".
	Label     string  `json:"label"`
	Cycles    int64   `json:"cycles"`
	Speedup   float64 `json:"speedup"`
	L2ReadTxn uint64  `json:"l2_read_txn"`
	// RemoteL2Txn counts L2-slice read misses homed on another die's
	// HBM stack; RemoteFrac normalizes by DRAM reads (0 = every miss
	// die-local, (D-1)/D = placement-oblivious expectation on D dies).
	RemoteL2Txn uint64  `json:"remote_l2_txn"`
	RemoteFrac  float64 `json:"remote_frac"`
	// InterposerBytes is the cross-die fill traffic.
	InterposerBytes uint64  `json:"interposer_bytes"`
	L1HitRate       float64 `json:"l1_hit_rate"`
}

// ChipletComparison is the four-way comparison for one
// (app, chiplet-arch) cell of the matrix.
type ChipletComparison struct {
	App string `json:"app"`
	// Arch is the derived chiplet descriptor name (e.g. "TeslaK40@2die")
	// and Chiplets its die count.
	Arch     string              `json:"arch"`
	Chiplets int                 `json:"chiplets"`
	Cells    []ChipletCellResult `json:"cells"`
	// Best names the fastest cell (ties break toward BSL, so a dead
	// heat reads as "clustering does not help here").
	Best string `json:"best"`
}

// ChipletCompareResponse is the matrix `evaluate -chiplet-compare`
// emits (BENCH_chiplet.json), arch-major in request order.
type ChipletCompareResponse struct {
	Comparisons []ChipletComparison `json:"comparisons"`
}
