package core

import "slices"

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
	// Votes lists every measured candidate in ThrottleCandidates order.
	Votes []Vote
}

// ThrottleCandidates lists the throttle degrees the dynamic CTA voting
// scheme (Section 4.3-I) tries for a kernel with max allowable agents:
// max first, as the unthrottled incumbent, then the in-range values of
// {1, 2, 3, 4, max/2}, de-duplicated, in that order.
func ThrottleCandidates(max int) []int {
	out := []int{max}
	for _, v := range []int{1, 2, 3, 4, max / 2} {
		if v >= 1 && v <= max && !slices.Contains(out, v) {
			out = append(out, v)
		}
	}
	return out
}

// PickVote returns the index of the first cheapest vote. Votes in
// ThrottleCandidates order put the maximum at index 0, so a tie keeps
// the unthrottled configuration. It returns -1 for no votes.
func PickVote(votes []Vote) int {
	best := -1
	for i, v := range votes {
		if best < 0 || v.Cost < votes[best].Cost {
			best = i
		}
	}
	return best
}
