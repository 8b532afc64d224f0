package locality

import (
	"reflect"
	"testing"

	"ctacluster/internal/arch"
	"ctacluster/internal/core"
	"ctacluster/internal/kernel"
)

// pairKernel gives CTAs 2i and 2i+1 identical read footprints while the
// natural order interleaves them badly: CTA order 0..n pairs (i, i+n/2).
type pairKernel struct {
	n int
}

func (k *pairKernel) Name() string                      { return "pairs" }
func (k *pairKernel) GridDim() kernel.Dim3              { return kernel.Dim1(k.n) }
func (k *pairKernel) BlockDim() kernel.Dim3             { return kernel.Dim1(32) }
func (k *pairKernel) WarpsPerCTA() int                  { return 1 }
func (k *pairKernel) RegsPerThread(arch.Generation) int { return 16 }
func (k *pairKernel) SharedMemPerCTA() int              { return 0 }
func (k *pairKernel) Work(l kernel.Launch) kernel.CTAWork {
	// CTA c shares a block with its partner (c + n/2) % n.
	group := l.CTA % (k.n / 2)
	base := uint64(0x10000 + group*512)
	ws := l.WarpBufs(1)
	ws[0] = append(ws[0], kernel.Load(base, 4, 32, 4), kernel.Load(base+128, 4, 32, 4))
	return kernel.CTAWork{Warps: ws}
}

func TestInspectorPermutationIsAPermutation(t *testing.T) {
	k := &pairKernel{n: 24}
	perm := InspectorPermutation(k, 32)
	if len(perm) != 24 {
		t.Fatalf("perm length = %d", len(perm))
	}
	seen := make([]bool, 24)
	for _, v := range perm {
		if v < 0 || v >= 24 || seen[v] {
			t.Fatalf("invalid permutation: %v", perm)
		}
		seen[v] = true
	}
}

func TestInspectorGroupsSharers(t *testing.T) {
	k := &pairKernel{n: 24}
	perm := InspectorPermutation(k, 32)
	natural := make([]int, 24)
	for i := range natural {
		natural[i] = i
	}
	ins := OverlapScore(k, perm, 32)
	nat := OverlapScore(k, natural, 32)
	if ins <= nat {
		t.Errorf("inspector order overlap %d should beat natural order %d", ins, nat)
	}
	// Partners should be adjacent: each CTA's neighbour in the perm
	// shares its group for most positions.
	adjacentPairs := 0
	for i := 1; i < len(perm); i++ {
		if perm[i]%12 == perm[i-1]%12 {
			adjacentPairs++
		}
	}
	if adjacentPairs < 10 {
		t.Errorf("only %d partner adjacencies; inspector failed to chain sharers", adjacentPairs)
	}
}

func TestInspectorDeterministic(t *testing.T) {
	k := &pairKernel{n: 16}
	p1 := InspectorPermutation(k, 32)
	p2 := InspectorPermutation(k, 32)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("inspector is not deterministic")
		}
	}
}

func TestOverlapScoreEdges(t *testing.T) {
	k := &pairKernel{n: 8}
	if OverlapScore(k, nil, 32) != 0 {
		t.Error("empty order should score 0")
	}
	if OverlapScore(k, []int{3}, 32) != 0 {
		t.Error("single-element order should score 0")
	}
}

// TestTraceReadersDrainAgentKernels hands an agent-clustered kernel to
// the trace readers. Its Work returns the first task and the rest
// through a continuation, so a reader that stops at Work's traces sees
// one task per agent. With one active agent per SM and static binding,
// every placement-free launch is agent 0 of SM 0, which runs all of
// SM 0's cluster.
func TestTraceReadersDrainAgentKernels(t *testing.T) {
	k := &patKernel{ctas: 64, ops: func(cta int) []kernel.Op {
		return []kernel.Op{kernel.Load(uint64(0x1000+cta*256), 4, 32, 4)}
	}}
	ag, err := core.NewAgent(k, core.AgentConfig{Arch: arch.GTX570(), Indexing: kernel.RowMajor, ActiveAgents: 1})
	if err != nil {
		t.Fatal(err)
	}
	tasks := ag.Tasks(0, 0)
	if len(tasks) < 2 {
		t.Fatalf("agent 0 of SM 0 has %d tasks; the test needs several", len(tasks))
	}
	want := map[uint64]struct{}{}
	for _, task := range tasks {
		for a := range readFootprint(k, task, 32) {
			want[a] = struct{}{}
		}
	}
	if got := readFootprint(ag, 0, 32); !reflect.DeepEqual(got, want) {
		t.Errorf("readFootprint saw %d lines of the agent's loop, want %d over its %d tasks", len(got), len(want), len(tasks))
	}
	if q, n := Quantify(ag, 32), uint64(ag.GridDim().Count()*len(tasks)); q.ReadOps != n {
		t.Errorf("Quantify counted %d reads over %d agents, want %d (%d tasks each)", q.ReadOps, ag.GridDim().Count(), n, len(tasks))
	}
}
