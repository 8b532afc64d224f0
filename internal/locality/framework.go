package locality

import (
	"fmt"
	"math"

	"ctacluster/internal/arch"
	"ctacluster/internal/core"
	"ctacluster/internal/engine"
	"ctacluster/internal/kernel"
)

// Probes records the coarse-grained measurements the framework takes to
// estimate a kernel's source of inter-CTA locality (Section 4.4).
type Probes struct {
	BaselineCycles int64
	BaselineL1Hit  float64
	BaselineL2Txn  uint64

	RedirectCycles int64
	RedirectL1Hit  float64 // after imposing a new CTA order (X or Y)
	RedirectL2Txn  uint64

	ClusterL1Hit  float64 // agent-based clustering probe
	ClusterL2Txn  uint64
	ThrottleL2Txn uint64 // agent-based clustering throttled to one agent

	L1OffL2Txn uint64 // L2 transactions with the L1 disabled

	CoalescingDegree float64
	RWConflictFrac   float64
	ReuseFraction    float64
	InterPct         float64
	GatherFrac       float64 // runtime-dependent (gather) reads
}

// Analysis is the framework's verdict for one kernel on one machine.
type Analysis struct {
	Kernel      string
	Arch        string
	Category    Category
	Exploitable bool
	Direction   kernel.Indexing
	Quant       Quant
	Probes      Probes
}

// Detection thresholds. The paper describes the probes qualitatively
// ("significant change"); these cutoffs are the tuned quantitative
// equivalents.
const (
	hitRateDelta    = 0.05 // |ΔL1 hit| marking inter-CTA potential
	l2TxnDelta      = 0.10 // relative ΔL2 transactions marking potential
	l1OffReduction  = 0.15 // L2-txn drop with L1 off => cache-line related
	coalescedDegree = 0.85 // above: streaming-like access
	rwConflictFrac  = 0.02 // fraction of lines with cross-CTA R/W overlap
	gatherFrac      = 0.20 // fraction of runtime-addressed reads => data-related
)

// Analyze runs the framework's estimation pipeline on k for ar: the
// reuse quantification, a redirection probe (imposed CTA order), and an
// L1-off probe, then classifies the locality source per Figure 11.
func Analyze(k kernel.Kernel, ar *arch.Arch) (*Analysis, error) {
	a := &Analysis{Kernel: k.Name(), Arch: ar.Name, Category: Uncategorized}

	a.Quant = Quantify(k, ar.L2Line)
	a.Probes.CoalescingDegree = a.Quant.CoalescingDegree
	a.Probes.ReuseFraction = a.Quant.ReuseFraction()
	a.Probes.InterPct = a.Quant.InterPct()
	a.Probes.GatherFrac = a.Quant.GatherFrac()
	if a.Quant.Lines > 0 {
		a.Probes.RWConflictFrac = float64(a.Quant.RWConflictLines) / float64(a.Quant.Lines)
	}

	var refs []kernel.ArrayRef
	if rd, ok := k.(kernel.RefDescriber); ok {
		refs = rd.ArrayRefs()
	}
	a.Direction = PartitionDirection(k.GridDim(), refs)

	base, err := engine.Run(engine.DefaultConfig(ar), k)
	if err != nil {
		return nil, fmt.Errorf("locality: baseline probe: %w", err)
	}
	a.Probes.BaselineCycles = base.Cycles
	a.Probes.BaselineL1Hit = base.L1.HitRate()
	a.Probes.BaselineL2Txn = base.L2ReadTransactions()

	rd, err := core.Redirect(k, ar.SMs, a.Direction, nil)
	if err != nil {
		return nil, fmt.Errorf("locality: redirect probe: %w", err)
	}
	rres, err := engine.Run(engine.DefaultConfig(ar), rd)
	if err != nil {
		return nil, fmt.Errorf("locality: redirect probe: %w", err)
	}
	a.Probes.RedirectCycles = rres.Cycles
	a.Probes.RedirectL1Hit = rres.L1.HitRate()
	a.Probes.RedirectL2Txn = rres.L2ReadTransactions()

	// The redirection probe depends on the scheduler honouring the RR
	// assumption; the agent-based probe circumvents the scheduler and
	// gives the reliable inter-CTA-potential signal. A one-agent
	// throttled variant exposes capacity-bound reuse (KMN-style).
	clu, err := core.NewAgent(k, core.AgentConfig{Arch: ar, Indexing: a.Direction})
	if err != nil {
		return nil, fmt.Errorf("locality: cluster probe: %w", err)
	}
	cres, err := engine.Run(engine.DefaultConfig(ar), clu)
	if err != nil {
		return nil, fmt.Errorf("locality: cluster probe: %w", err)
	}
	a.Probes.ClusterL1Hit = cres.L1.HitRate()
	a.Probes.ClusterL2Txn = cres.L2ReadTransactions()

	tot, err := core.NewAgent(k, core.AgentConfig{Arch: ar, Indexing: a.Direction, ActiveAgents: 1})
	if err != nil {
		return nil, fmt.Errorf("locality: throttle probe: %w", err)
	}
	tres, err := engine.Run(engine.DefaultConfig(ar), tot)
	if err != nil {
		return nil, fmt.Errorf("locality: throttle probe: %w", err)
	}
	a.Probes.ThrottleL2Txn = tres.L2ReadTransactions()

	offCfg := engine.DefaultConfig(ar)
	offCfg.L1Enabled = false
	ores, err := engine.Run(offCfg, k)
	if err != nil {
		return nil, fmt.Errorf("locality: L1-off probe: %w", err)
	}
	a.Probes.L1OffL2Txn = ores.L2ReadTransactions()

	a.Category = classify(a.Probes)
	a.Exploitable = a.Category.Exploitable()
	return a, nil
}

func classify(p Probes) Category {
	// Inter-CTA potential: any of the imposed CTA orders (redirection,
	// agent clustering, throttled clustering) significantly moved the
	// L1 hit rate or the L2 traffic.
	potential := math.Abs(p.RedirectL1Hit-p.BaselineL1Hit) > hitRateDelta ||
		math.Abs(p.ClusterL1Hit-p.BaselineL1Hit) > hitRateDelta ||
		relDelta(p.BaselineL2Txn, p.RedirectL2Txn) > l2TxnDelta ||
		relDelta(p.BaselineL2Txn, p.ClusterL2Txn) > l2TxnDelta ||
		relDelta(p.BaselineL2Txn, p.ThrottleL2Txn) > 2*l2TxnDelta
	l1OffHelps := p.BaselineL2Txn > 0 &&
		float64(p.BaselineL2Txn)-float64(p.L1OffL2Txn) > l1OffReduction*float64(p.BaselineL2Txn)

	if potential {
		// Runtime-addressed gathers mean the locality is defined by the
		// data, not the program: data-related, only exploitable with
		// runtime knowledge (Figure 4-C, Section 4.1).
		if p.GatherFrac > gatherFrac {
			return Data
		}
		// Locality that an imposed order can move but that a write to
		// the same lines keeps destroying is write-related: present but
		// not exploitable (Figure 4-D).
		if p.RWConflictFrac > rwConflictFrac {
			return Write
		}
		if l1OffHelps {
			// Turning L1 off removed over-fetch from long L1 lines.
			return CacheLine
		}
		return Algorithm
	}
	if p.CoalescingDegree < coalescedDegree {
		return Data
	}
	if p.RWConflictFrac > rwConflictFrac {
		return Write
	}
	return Streaming
}

func relDelta(a, b uint64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return 1
	}
	return math.Abs(float64(a)-float64(b)) / float64(a)
}

// Plan is the framework's chosen optimization (Figure 5).
type Plan struct {
	Analysis *Analysis
	// Clustered is the transformed kernel: agent-based clustering for
	// exploitable locality, order-reshaping + prefetching otherwise.
	Clustered kernel.Kernel
	// Description explains the decision.
	Description string
}

// Optimize analyses k and applies the optimization strategy of Figure 5:
// exploitable inter-CTA locality gets agent-based CTA-Clustering along
// the derived partition direction; everything else gets CTA-order
// reshaping with CTA prefetching.
func Optimize(k kernel.Kernel, ar *arch.Arch) (*Plan, error) {
	a, err := Analyze(k, ar)
	if err != nil {
		return nil, err
	}
	cfg := core.AgentConfig{Arch: ar, Indexing: a.Direction}
	if !a.Exploitable {
		cfg.Prefetch = true
	}
	ag, err := core.NewAgent(k, cfg)
	if err != nil {
		return nil, err
	}
	desc := fmt.Sprintf("category=%s exploitable=%t partition=%s scheme=",
		a.Category, a.Exploitable, DirectionLabel(a.Direction))
	if a.Exploitable {
		desc += "agent-clustering"
	} else {
		desc += "reshape+prefetch"
	}
	return &Plan{Analysis: a, Clustered: ag, Description: desc}, nil
}
