package locality

import (
	"testing"

	"ctacluster/internal/arch"
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
