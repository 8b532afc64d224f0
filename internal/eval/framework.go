package eval

import (
	"fmt"

	"ctacluster/internal/arch"
	"ctacluster/internal/locality"
	"ctacluster/internal/workloads"
)

// FrameworkVerdict records the framework's estimate for one application
// against the Table 2 ground truth.
type FrameworkVerdict struct {
	App         string
	Truth       locality.Category
	Estimated   locality.Category
	CategoryOK  bool // exact category match
	ExploitOK   bool // exploitable/unexploitable verdict match
	DirectionOK bool // partition direction matches Table 2
}

// FrameworkAccuracy runs the Section 4.4 categorization pipeline over a
// set of applications on one platform and scores it against the Table 2
// ground truth. The paper's framework is coarse-grained by design; the
// decision that matters for Figure 5 is exploitability, so that is the
// headline accuracy.
type FrameworkAccuracy struct {
	Verdicts     []FrameworkVerdict
	CategoryHits int
	ExploitHits  int
	DirHits      int
}

// CategoryRate returns exact-category accuracy.
func (a *FrameworkAccuracy) CategoryRate() float64 {
	if len(a.Verdicts) == 0 {
		return 0
	}
	return float64(a.CategoryHits) / float64(len(a.Verdicts))
}

// ExploitRate returns the exploitability-verdict accuracy (the Figure 5
// routing decision).
func (a *FrameworkAccuracy) ExploitRate() float64 {
	if len(a.Verdicts) == 0 {
		return 0
	}
	return float64(a.ExploitHits) / float64(len(a.Verdicts))
}

// DirectionRate returns the partition-direction accuracy.
func (a *FrameworkAccuracy) DirectionRate() float64 {
	if len(a.Verdicts) == 0 {
		return 0
	}
	return float64(a.DirHits) / float64(len(a.Verdicts))
}

// EvaluateFramework scores the automatic categorization on apps. The
// per-app analyses (each a handful of probe simulations) are mutually
// independent and fan out across opt.Parallelism workers; verdicts and
// hit counts are accumulated in input order, so the result is identical
// to a serial run.
func EvaluateFramework(ar *arch.Arch, apps []*workloads.App, opt Options) (*FrameworkAccuracy, error) {
	ctx := opt.context()
	analyses := make([]*locality.Analysis, len(apps))
	err := NewRunner(opt.Parallelism).Each(len(apps), func(i int) error {
		an, err := locality.Analyze(ctx, apps[i], ar)
		if err != nil {
			return fmt.Errorf("eval: framework on %s: %w", apps[i].Name(), err)
		}
		analyses[i] = an
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := &FrameworkAccuracy{}
	for i, app := range apps {
		an := analyses[i]
		v := FrameworkVerdict{
			App:         app.Name(),
			Truth:       app.Category(),
			Estimated:   an.Category,
			CategoryOK:  an.Category == app.Category(),
			ExploitOK:   an.Category.Exploitable() == app.Category().Exploitable(),
			DirectionOK: an.Direction == app.Partition(),
		}
		if v.CategoryOK {
			out.CategoryHits++
		}
		if v.ExploitOK {
			out.ExploitHits++
		}
		if v.DirectionOK {
			out.DirHits++
		}
		out.Verdicts = append(out.Verdicts, v)
	}
	return out, nil
}
