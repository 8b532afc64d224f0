package prof

// TraceConfig selects what a Trace records and labels the run for the
// exporters.
type TraceConfig struct {
	Kernel string // kernel/application name
	Arch   string // platform name
	Label  string // optional scheme/run label (e.g. "CLU+TOT(2)")
	SMs    int    // SM count, used for the per-SM exporter lanes

	// Events masks the recorded event kinds; zero means MaskCTA (the
	// cheap CTA-lifetime timeline).
	Events EventMask
	// SampleInterval is the counter-snapshot period in cycles; zero
	// disables interval sampling.
	SampleInterval int64
}

// Trace is the standard Profiler: it records the selected events and
// counter snapshots in emission order for later export. The zero cost
// of disabled kinds is a single mask test per event.
type Trace struct {
	cfg    TraceConfig
	events []Event
	snaps  []Snapshot
}

// NewTrace builds a recording profiler from cfg.
func NewTrace(cfg TraceConfig) *Trace {
	if cfg.Events == 0 {
		cfg.Events = MaskCTA
	}
	return &Trace{cfg: cfg}
}

// Emit records e if its kind is selected by the mask.
func (t *Trace) Emit(e Event) {
	if t.cfg.Events&(1<<e.Kind) == 0 {
		return
	}
	t.events = append(t.events, e)
}

// Snapshot records one interval counter sample.
func (t *Trace) Snapshot(s Snapshot) { t.snaps = append(t.snaps, s) }

// SampleInterval reports the configured snapshot period.
func (t *Trace) SampleInterval() int64 { return t.cfg.SampleInterval }

// Config returns the trace configuration.
func (t *Trace) Config() TraceConfig { return t.cfg }

// Events returns the recorded events in emission order. The slice is
// owned by the trace; callers must not mutate it.
func (t *Trace) Events() []Event { return t.events }

// Snapshots returns the recorded cumulative counter samples in order.
func (t *Trace) Snapshots() []Snapshot { return t.snaps }

// IntervalDeltas converts the cumulative snapshots into per-interval
// counter deltas. Because the engine appends a final snapshot after the
// run drains, the deltas sum back to the end-of-run totals — the
// conservation property the snapshot tests pin.
func (t *Trace) IntervalDeltas() []Snapshot {
	out := make([]Snapshot, len(t.snaps))
	var prev Snapshot
	for i, s := range t.snaps {
		out[i] = s.Sub(prev)
		prev = s
	}
	return out
}
