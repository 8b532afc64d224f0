package core

import (
	"fmt"
	"slices"

	"ctacluster/internal/kernel"
)

// Measure evaluates one clustered configuration and returns its cost
// (lower is better — typically the simulated cycle count). VoteAgents
// is measurement-agnostic so callers can vote on cycles, L2 traffic or
// any combined objective.
type Measure func(k *AgentKernel) (cost float64, err error)

// Vote records one measured throttling candidate.
type Vote struct {
	Agents int
	Cost   float64
}

// VoteResult is the outcome of the dynamic throttle selection.
type VoteResult struct {
	// Best is the winning configuration, ready to launch.
	Best *AgentKernel
	// Agents is the winning ACTIVE_AGENTS degree.
	Agents int
	// Votes lists every measured candidate in evaluation order.
	Votes []Vote
}

// VoteAgents implements the dynamic CTA voting scheme the paper adopts
// for deciding the number of active agents at runtime (Section 4.3-I,
// following [12]): it builds the agent-based clustering of orig for
// each candidate throttling degree, measures each with the supplied
// probe, and returns the cheapest. Candidates default to
// ThrottleCandidates(max); pass explicit candidates to override.
//
// The base configuration (indexing, bypass, prefetch) is taken from
// cfg; its ActiveAgents field is overridden per candidate.
func VoteAgents(orig kernel.Kernel, cfg AgentConfig, measure Measure, candidates ...int) (*VoteResult, error) {
	if measure == nil {
		return nil, fmt.Errorf("core: VoteAgents needs a measurement probe")
	}
	// Discover the maximum allowable agents from a throwaway transform.
	probe, err := NewAgent(orig, cfg)
	if err != nil {
		return nil, err
	}
	max := probe.MaxAgents()
	if len(candidates) == 0 {
		candidates = ThrottleCandidates(max)
	}

	res := &VoteResult{Agents: -1}
	bestCost := 0.0
	seen := map[int]bool{}
	for _, a := range candidates {
		if a < 1 || a > max || seen[a] {
			continue
		}
		seen[a] = true
		cfg.ActiveAgents = a
		k, err := NewAgent(orig, cfg)
		if err != nil {
			return nil, err
		}
		cost, err := measure(k)
		if err != nil {
			return nil, fmt.Errorf("core: voting probe at %d agents: %w", a, err)
		}
		res.Votes = append(res.Votes, Vote{Agents: a, Cost: cost})
		if res.Best == nil || cost < bestCost {
			res.Best, res.Agents, bestCost = k, a, cost
		}
	}
	if res.Best == nil {
		return nil, fmt.Errorf("core: no valid throttling candidates for %s (max %d)", orig.Name(), max)
	}
	return res, nil
}

// ThrottleCandidates lists the throttle degrees the dynamic voting
// scheme tries for a kernel with max allowable agents: the in-range
// values of {1, 2, 3, 4, max/2, max}, de-duplicated, in that order.
func ThrottleCandidates(max int) []int {
	var out []int
	for _, v := range []int{1, 2, 3, 4, max / 2, max} {
		if v >= 1 && v <= max && !slices.Contains(out, v) {
			out = append(out, v)
		}
	}
	return out
}
