// Package ctacluster is a Go reproduction of "Locality-Aware CTA
// Clustering for Modern GPUs" (Li et al., ASPLOS 2017).
//
// It bundles a trace-driven, discrete-event GPU simulator (four modern
// NVIDIA generations: Fermi, Kepler, Maxwell, Pascal), the paper's
// CTA-Clustering transforms (redirection-based and agent-based, with
// throttling, bypassing and prefetching), the inter-CTA locality
// quantification, and the automatic optimization framework, plus the 23
// evaluated benchmark applications as workload generators.
//
// The typical flow mirrors the paper:
//
//	ar := ctacluster.Platform("TeslaK40")
//	app, _ := ctacluster.Benchmark("MM")
//	base, _ := ctacluster.Simulate(ar, app)
//	clustered, _ := ctacluster.Cluster(app, ctacluster.ClusterOptions{Arch: ar})
//	opt, _ := ctacluster.Simulate(ar, clustered)
//	fmt.Printf("speedup %.2fx\n", float64(base.Cycles)/float64(opt.Cycles))
//
// Or let the framework decide (Figure 11):
//
//	plan, _ := ctacluster.Optimize(app, ar)
//	res, _ := ctacluster.Simulate(ar, plan.Clustered)
package ctacluster

import (
	"context"
	"fmt"

	"ctacluster/internal/arch"
	"ctacluster/internal/core"
	"ctacluster/internal/engine"
	"ctacluster/internal/eval"
	"ctacluster/internal/kernel"
	"ctacluster/internal/locality"
	"ctacluster/internal/workloads"
)

// Core re-exported types. Aliases keep the full documented APIs of the
// internal packages reachable through the public module surface.
type (
	// Arch describes a GPU platform (Table 1 row).
	Arch = arch.Arch
	// Kernel is the executable unit the simulator runs and the
	// transforms rewrite.
	Kernel = kernel.Kernel
	// Launch is the runtime placement context a CTA observes. Its Buf
	// field is the storage Work appends the CTA's warp traces to (nil,
	// or one trace per warp, possibly holding a prefix to keep); use
	// Launch.WarpBufs to get it.
	Launch = kernel.Launch
	// CTAWork is a dispatched CTA's op traces.
	CTAWork = kernel.CTAWork
	// Op is one warp-trace element.
	Op = kernel.Op
	// Dim3 is a CUDA-style extent.
	Dim3 = kernel.Dim3
	// Indexing is a CTA ordering method (Figure 7).
	Indexing = kernel.Indexing
	// Result is a simulation outcome.
	Result = engine.Result
	// Config controls a simulation run.
	Config = engine.Config
	// Partition is the balanced chunking f of Section 4.2.1.
	Partition = core.Partition
	// AgentKernel is the agent-based clustering transform.
	AgentKernel = core.AgentKernel
	// RedirectKernel is the redirection-based clustering transform, a
	// CTA remap like the tile swizzles.
	RedirectKernel = kernel.Remapped
	// Quant is an inter-CTA reuse quantification (Figure 3).
	Quant = locality.Quant
	// Analysis is the framework's categorization verdict.
	Analysis = locality.Analysis
	// Plan is the framework's chosen optimization.
	Plan = locality.Plan
	// Category is a source of inter-CTA locality (Figure 4).
	Category = locality.Category
	// App is a built-in benchmark application (Table 2).
	App = workloads.App
	// ArrayRef describes one global-array reference for the framework's
	// dependence analysis (Section 4.2.1-A).
	ArrayRef = kernel.ArrayRef
	// Microbench is the Listing-3 locality microbenchmark.
	Microbench = workloads.Microbench
)

// CTA indexing methods (Figure 7).
const (
	RowMajor  = kernel.RowMajor
	ColMajor  = kernel.ColMajor
	TileWise  = kernel.TileWise
	Arbitrary = kernel.Arbitrary
)

// Block-coordinate names for ArrayRef metadata.
const (
	CoordNone = kernel.CoordNone
	CoordBX   = kernel.CoordBX
	CoordBY   = kernel.CoordBY
)

// Locality categories (Section 3.2).
const (
	Algorithm = locality.Algorithm
	CacheLine = locality.CacheLine
	Data      = locality.Data
	Write     = locality.Write
	Streaming = locality.Streaming
)

// Generation is a GPU architecture generation (Fermi..Pascal).
type Generation = arch.Generation

// Trace-building helpers for authoring custom kernels: these re-export
// the kernel package's op constructors so a Kernel implementation can be
// written against the public surface alone (see examples/customkernel).
var (
	// Compute returns a compute op occupying the warp for n cycles.
	Compute = kernel.Compute
	// Barrier returns a CTA-wide __syncthreads().
	Barrier = kernel.Barrier
	// Load returns a coalescable read (base, lane stride, lanes, size).
	Load = kernel.Load
	// Store is the write counterpart of Load.
	Store = kernel.Store
	// AppendGather appends an irregular read with explicit lane
	// addresses to a warp trace: a head op followed by the lane ops
	// that carry the addresses inline.
	AppendGather = kernel.AppendGather
	// AppendScatter is the write counterpart of AppendGather.
	AppendScatter = kernel.AppendScatter
	// AtomicAdd returns a global atomic read-modify-write.
	AtomicAdd = kernel.AtomicAdd
	// Dim1 and Dim2 build 1D/2D extents.
	Dim1 = kernel.Dim1
	Dim2 = kernel.Dim2
	// WarpCount returns ceil(block threads / 32).
	WarpCount = kernel.WarpCount
	// NewAddressSpace allocates non-overlapping device arrays.
	NewAddressSpace = kernel.NewAddressSpace
)

// Platforms returns the four evaluation GPUs of Table 1.
func Platforms() []*Arch { return arch.All() }

// Platform returns a platform by name (GTX570, TeslaK40, GTX980,
// GTX1080, GTX750Ti); it panics on unknown names, which are programmer
// errors — use arch.ByName for error handling.
func Platform(name string) *Arch {
	a, err := arch.ByName(name)
	if err != nil {
		panic(err)
	}
	return a
}

// Benchmark instantiates a built-in application by its Table 2
// abbreviation (MM, KMN, BS, ...).
func Benchmark(name string) (*App, error) { return workloads.New(name) }

// Benchmarks returns the 23 evaluated applications in Table 2 order.
func Benchmarks() []*App { return workloads.Table2() }

// Simulate runs kernel k on platform ar with the default configuration
// (the platform's observed GigaThread policy, L1 enabled).
func Simulate(ar *Arch, k Kernel) (*Result, error) {
	return engine.Run(engine.DefaultConfig(ar), k)
}

// SimulateConfig runs k under an explicit configuration.
func SimulateConfig(cfg Config, k Kernel) (*Result, error) {
	return engine.Run(cfg, k)
}

// ClusterOptions configures the agent-based clustering transform; it is
// a re-export of core.AgentConfig.
type ClusterOptions = core.AgentConfig

// Cluster applies agent-based CTA-Clustering (Section 4.2.4-2) to k.
// Zero-valued options select the kernel's natural partition direction
// (row-major) and the maximum allowable agents.
func Cluster(k Kernel, opts ClusterOptions) (*AgentKernel, error) {
	return core.NewAgent(k, opts)
}

// Redirect applies redirection-based CTA-Clustering (Section 4.2.4-1).
func Redirect(k Kernel, sms int, ix Indexing) (*RedirectKernel, error) {
	return core.Redirect(k, sms, ix)
}

// Quantify measures the inter-/intra-CTA reuse split of k's pre-L1
// request stream at the given line granularity (Figure 3).
func Quantify(k Kernel, lineBytes int) Quant {
	return locality.Quantify(k, lineBytes)
}

// Analyze runs the framework's category-estimation pipeline (Section
// 4.4) for k on ar.
func Analyze(k Kernel, ar *Arch) (*Analysis, error) {
	return locality.Analyze(context.Background(), k, ar)
}

// Optimize analyses k and applies the optimization strategy of Figure 5.
func Optimize(k Kernel, ar *Arch) (*Plan, error) {
	return locality.Optimize(context.Background(), k, ar)
}

// InspectorPermutation derives a customized CTA order for data-related
// kernels by profiling footprint overlap (the inspector-kernel extension
// of Sections 3.2 and 6); use it with ClusterOptions{Indexing:
// Arbitrary, Perm: perm}.
func InspectorPermutation(k Kernel, lineBytes int) []int {
	return locality.InspectorPermutation(k, lineBytes)
}

// VoteAgents runs the dynamic CTA voting scheme (Section 4.3-I) on ar:
// it simulates one clustering of k per core.ThrottleCandidates degree
// and returns the one core.PickVote chooses — the fewest cycles, a tie
// keeping the maximum. opts.ActiveAgents is ignored. The evaluation
// harness's CLU+TOT cell makes the same choice.
func VoteAgents(k Kernel, ar *Arch, opts ClusterOptions) (*core.VoteResult, error) {
	opts.Arch, opts.ActiveAgents = ar, 0
	probe, err := core.NewAgent(k, opts)
	if err != nil {
		return nil, err
	}
	res := &core.VoteResult{}
	var built []*AgentKernel
	for _, a := range core.ThrottleCandidates(probe.MaxAgents()) {
		opts.ActiveAgents = a
		ak, err := core.NewAgent(k, opts)
		if err != nil {
			return nil, err
		}
		sim, err := Simulate(ar, ak)
		if err != nil {
			return nil, fmt.Errorf("ctacluster: voting at %d agents: %w", a, err)
		}
		built = append(built, ak)
		res.Votes = append(res.Votes, core.Vote{Agents: a, Cost: float64(sim.Cycles)})
	}
	best := core.PickVote(res.Votes)
	res.Best, res.Agents = built[best], res.Votes[best].Agents
	return res, nil
}

// Speedup is a convenience for comparing two results of the same kernel.
func Speedup(base, opt *Result) float64 {
	if opt == nil || base == nil || opt.Cycles == 0 {
		return 0
	}
	return float64(base.Cycles) / float64(opt.Cycles)
}

// EvaluateApp runs the full six-scheme evaluation matrix (Figures 12 and
// 13) for one application on one platform.
func EvaluateApp(ar *Arch, app *App) (*eval.AppResult, error) {
	return eval.EvaluateApp(ar, app, eval.Options{})
}

// Version identifies this reproduction.
const Version = "1.0.0"
