package ctacluster_test

import (
	"math"
	"strings"
	"testing"

	"ctacluster"
	"ctacluster/internal/eval"
)

func TestVoteAgentsFacade(t *testing.T) {
	ar := ctacluster.Platform("GTX570")
	app, err := ctacluster.Benchmark("KMN")
	if err != nil {
		t.Fatal(err)
	}
	res, err := ctacluster.VoteAgents(app, ar, ctacluster.ClusterOptions{Indexing: app.Partition()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil || res.Agents < 1 {
		t.Fatalf("vote result incomplete: %+v", res)
	}
	if len(res.Votes) < 3 {
		t.Errorf("votes = %d, want several candidates", len(res.Votes))
	}
	if res.Votes[0].Agents != res.Best.MaxAgents() {
		t.Errorf("first vote at %d agents, want the maximum %d", res.Votes[0].Agents, res.Best.MaxAgents())
	}
	// The paper throttles KMN hard: the winner must be well below the
	// maximum allowable agents.
	if res.Agents > 4 {
		t.Errorf("KMN optimal agents = %d, expected heavy throttling", res.Agents)
	}
	// The winning kernel must simulate at the winning cost.
	sim, err := ctacluster.Simulate(ar, res.Best)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Votes {
		if v.Agents == res.Agents && float64(sim.Cycles) != v.Cost {
			t.Errorf("winner cost %v != re-simulated cycles %d", v.Cost, sim.Cycles)
		}
	}
}

// TestVoteAgentsMatchesEval pins that the facade and the evaluation
// harness are one selector: the facade's first vote is eval's CLU cell,
// and its winner is eval's CLU+TOT cell, agents and cycles alike. On
// GTX980, NW keeps the maximum and KMN throttles to 2 agents.
func TestVoteAgentsMatchesEval(t *testing.T) {
	ar := ctacluster.Platform("GTX980")
	for _, name := range []string{"NW", "KMN"} {
		app, err := ctacluster.Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		vote, err := ctacluster.VoteAgents(app, ar, ctacluster.ClusterOptions{Indexing: app.Partition()})
		if err != nil {
			t.Fatal(err)
		}
		ev, err := ctacluster.EvaluateApp(ar, app)
		if err != nil {
			t.Fatal(err)
		}
		clu, tot := ev.Cells[eval.CLU], ev.Cells[eval.CLUTOT]
		if v := vote.Votes[0]; v.Agents != clu.Agents || v.Cost != float64(clu.Cycles) {
			t.Errorf("%s: first vote %+v, eval CLU cell %d agents / %d cycles", name, v, clu.Agents, clu.Cycles)
		}
		if vote.Agents != tot.Agents {
			t.Errorf("%s: facade picks %d agents, eval CLU+TOT %d", name, vote.Agents, tot.Agents)
		}
		for _, v := range vote.Votes {
			if v.Agents == tot.Agents && v.Cost != float64(tot.Cycles) {
				t.Errorf("%s: vote %+v, eval CLU+TOT cell %d cycles", name, v, tot.Cycles)
			}
		}
	}
}

// runawayKernel's one warp computes for more cycles than the simulator
// allows, so every simulation of it fails. smem sets its shared memory
// per CTA, so a large value makes it fit on no SM at all.
type runawayKernel struct{ smem int }

func (runawayKernel) Name() string                            { return "runaway" }
func (runawayKernel) GridDim() ctacluster.Dim3                { return ctacluster.Dim1(64) }
func (runawayKernel) BlockDim() ctacluster.Dim3               { return ctacluster.Dim1(32) }
func (runawayKernel) WarpsPerCTA() int                        { return 1 }
func (runawayKernel) RegsPerThread(ctacluster.Generation) int { return 16 }
func (k runawayKernel) SharedMemPerCTA() int                  { return k.smem }
func (runawayKernel) Work(l ctacluster.Launch) ctacluster.CTAWork {
	ws := l.WarpBufs(1)
	for i := 0; i < 5; i++ {
		ws[0] = append(ws[0], ctacluster.Compute(math.MaxInt32))
	}
	return ctacluster.CTAWork{Warps: ws}
}

// TestVoteAgentsErrors: a clustering that cannot be built and a
// simulation that fails both come back as errors, not as a winner.
func TestVoteAgentsErrors(t *testing.T) {
	ar := ctacluster.Platform("TeslaK40")
	if _, err := ctacluster.VoteAgents(runawayKernel{smem: 1 << 30}, ar, ctacluster.ClusterOptions{}); err == nil || !strings.Contains(err.Error(), "does not fit") {
		t.Errorf("oversized kernel: err = %v, want a does-not-fit error", err)
	}
	_, err := ctacluster.VoteAgents(runawayKernel{}, ar, ctacluster.ClusterOptions{})
	if err == nil || !strings.Contains(err.Error(), "voting at") || !strings.Contains(err.Error(), "exceeded") {
		t.Errorf("runaway kernel: err = %v, want the simulation error wrapped by the vote", err)
	}
}

func TestInspectorPermutationFacade(t *testing.T) {
	app, err := ctacluster.Benchmark("BTR")
	if err != nil {
		t.Fatal(err)
	}
	perm := ctacluster.InspectorPermutation(app, 32)
	if len(perm) != app.GridDim().Count() {
		t.Fatalf("perm length = %d, want %d", len(perm), app.GridDim().Count())
	}
	seen := make([]bool, len(perm))
	for _, v := range perm {
		if v < 0 || v >= len(perm) || seen[v] {
			t.Fatal("not a permutation")
		}
		seen[v] = true
	}
	// The custom order must be usable end-to-end.
	ar := ctacluster.Platform("TeslaK40")
	k, err := ctacluster.Cluster(app, ctacluster.ClusterOptions{
		Arch: ar, Indexing: ctacluster.Arbitrary, Perm: perm,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctacluster.Simulate(ar, k); err != nil {
		t.Fatal(err)
	}
}
