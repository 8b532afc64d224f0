package kernel

import "fmt"

// Remapped is a CTA-remap transform: it launches the grid of the kernel
// it embeds, and CTA u runs the original CTA Target(u), after an
// index-recomputation op that charges the remap's cost. It is the one
// implementation behind the paper's redirection transform (Section
// 4.2.4-(1), Listing 4, built by core.Redirect) and every CTA tile
// swizzle (built by swizzle.WrapFor). The grid, block and resource
// footprint are the embedded kernel's: the remap needs two scratch
// integers, below the register allocation granularity.
type Remapped struct {
	Kernel
	suffix string
	cost   int
	perm   []int // new CTA u -> original linear CTA id; nil = identity
}

// NewRemapped wraps orig so that CTA u runs original CTA perm[u] after
// a Compute(cost) op, and is named orig's name plus suffix. A cost of 0
// appends no op, and a nil perm is the identity. It returns an error if
// perm is not a bijection over orig's grid.
func NewRemapped(orig Kernel, suffix string, cost int, perm []int) (*Remapped, error) {
	if perm != nil && !isPermutation(perm, orig.GridDim().Count()) {
		return nil, fmt.Errorf("kernel: %s%s remap is not a permutation of the %v grid", orig.Name(), suffix, orig.GridDim())
	}
	return &Remapped{Kernel: orig, suffix: suffix, cost: cost, perm: perm}, nil
}

// isPermutation reports whether perm is a bijection over [0, n).
func isPermutation(perm []int, n int) bool {
	if len(perm) != n {
		return false
	}
	seen := make([]bool, n)
	for _, v := range perm {
		if v < 0 || v >= n || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

// Name labels the transformed kernel.
func (k *Remapped) Name() string { return k.Kernel.Name() + k.suffix }

// ArrayRefs exposes the original kernel's reference structure, so the
// locality framework's dependence analysis sees through the remap.
func (k *Remapped) ArrayRefs() []ArrayRef { return ArrayRefsOf(k.Kernel) }

// Target returns the original CTA id that CTA u runs.
func (k *Remapped) Target(u int) int {
	if k.perm == nil {
		return u
	}
	return k.perm[u]
}

// Work runs CTA l.CTA as its target, after the index-recomputation op.
func (k *Remapped) Work(l Launch) CTAWork {
	l.CTA = k.Target(l.CTA)
	if k.cost == 0 {
		return k.Kernel.Work(l)
	}
	return WorkAfter(k.Kernel, l, Compute(k.cost))
}
