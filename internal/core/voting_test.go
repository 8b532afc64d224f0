package core

import "testing"

func TestPickVotePicksCheapest(t *testing.T) {
	// Synthetic cost curve over the TeslaK40-sized candidate list with a
	// minimum at 3 agents.
	var votes []Vote
	for _, a := range ThrottleCandidates(16) {
		d := a - 3
		votes = append(votes, Vote{Agents: a, Cost: float64(d*d) + 10})
	}
	if i := PickVote(votes); votes[i].Agents != 3 {
		t.Errorf("winner = %d agents, want 3", votes[i].Agents)
	}
	if i := PickVote(nil); i != -1 {
		t.Errorf("PickVote(nil) = %d, want -1", i)
	}
}

// TestPickVoteTieKeepsMax pins the one tie rule: when every candidate
// costs the same, the first vote wins, and ThrottleCandidates puts the
// unthrottled maximum first.
func TestPickVoteTieKeepsMax(t *testing.T) {
	for _, max := range []int{1, 2, 5, 8, 16, 32} {
		cands := ThrottleCandidates(max)
		if cands[0] != max {
			t.Fatalf("ThrottleCandidates(%d) = %v, want max first", max, cands)
		}
		votes := make([]Vote, len(cands))
		for i, a := range cands {
			votes[i] = Vote{Agents: a, Cost: 42}
		}
		if i := PickVote(votes); votes[i].Agents != max {
			t.Errorf("max=%d: all-tie winner = %d agents, want %d", max, votes[i].Agents, max)
		}
	}
}
