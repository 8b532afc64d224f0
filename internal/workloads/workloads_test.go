package workloads

import (
	"reflect"
	"runtime"
	"testing"

	"ctacluster/internal/arch"
	"ctacluster/internal/kernel"
	"ctacluster/internal/locality"
)

func TestRegistryComplete(t *testing.T) {
	if got := len(Table2()); got != 24 {
		t.Errorf("Table 2 has %d apps, want 24 (the paper's 23 plus the promoted COR)", got)
	}
	if got := len(Figure3()); got != 40 {
		t.Errorf("Figure 3 set has %d apps, want 40 (24 + 16 extras)", got)
	}
	if _, err := New("NOPE"); err == nil {
		t.Error("unknown app should fail")
	}
	for _, n := range Names() {
		a, err := New(n)
		if err != nil {
			t.Fatalf("New(%s): %v", n, err)
		}
		if a.Name() != n {
			t.Errorf("New(%s).Name() = %s", n, a.Name())
		}
	}
}

func TestTable2Order(t *testing.T) {
	want := []string{"KMN", "MM", "NN", "IMD", "BKP", "DCT", "SGM", "HS",
		"SYK", "S2K", "ATX", "MVT", "NBO", "3CV", "BC", "COR",
		"HST", "BTR", "NW", "BFS", "MON", "DXT", "SAD", "BS"}
	apps := Table2()
	for i, n := range want {
		if apps[i].Name() != n {
			t.Fatalf("Table2()[%d] = %s, want %s", i, apps[i].Name(), n)
		}
	}
}

func TestTable2Categories(t *testing.T) {
	want := map[string]locality.Category{
		"KMN": locality.Algorithm, "MM": locality.Algorithm, "NN": locality.Algorithm,
		"IMD": locality.Algorithm, "BKP": locality.Algorithm, "DCT": locality.Algorithm,
		"SGM": locality.Algorithm, "HS": locality.Algorithm,
		"SYK": locality.CacheLine, "S2K": locality.CacheLine, "ATX": locality.CacheLine,
		"MVT": locality.CacheLine, "NBO": locality.CacheLine, "3CV": locality.CacheLine,
		"BC": locality.CacheLine, "COR": locality.CacheLine,
		"HST": locality.Data, "BTR": locality.Data, "BFS": locality.Data,
		"NW":  locality.Write,
		"MON": locality.Streaming, "DXT": locality.Streaming,
		"SAD": locality.Streaming, "BS": locality.Streaming,
	}
	for _, app := range Table2() {
		if app.Category() != want[app.Name()] {
			t.Errorf("%s category = %v, want %v", app.Name(), app.Category(), want[app.Name()])
		}
	}
	bfs, _ := New("BFS")
	if !bfs.WriteRelated() {
		t.Error("BFS is Data&Writing in Table 2")
	}
}

func TestTable2WarpsPerCTA(t *testing.T) {
	want := map[string]int{
		"KMN": 8, "MM": 32, "NN": 1, "IMD": 2, "BKP": 8, "DCT": 2, "SGM": 4, "HS": 8,
		"SYK": 8, "S2K": 8, "ATX": 8, "MVT": 8, "NBO": 8, "3CV": 8, "BC": 8, "COR": 8,
		"HST": 8, "BTR": 8, "NW": 1, "BFS": 8, "MON": 8, "DXT": 2, "SAD": 2, "BS": 4,
	}
	for _, app := range Table2() {
		if app.WarpsPerCTA() != want[app.Name()] {
			t.Errorf("%s WP = %d, want %d", app.Name(), app.WarpsPerCTA(), want[app.Name()])
		}
	}
}

func TestTable2Registers(t *testing.T) {
	// Spot-check the per-generation register costs against Table 2.
	mm, _ := New("MM")
	if mm.RegsPerThread(arch.Fermi) != 22 || mm.RegsPerThread(arch.Kepler) != 29 ||
		mm.RegsPerThread(arch.Maxwell) != 32 || mm.RegsPerThread(arch.Pascal) != 27 {
		t.Error("MM registers do not match Table 2 (22/29/32/27)")
	}
	dxt, _ := New("DXT")
	if dxt.RegsPerThread(arch.Kepler) != 89 {
		t.Error("DXT Kepler registers should be 89")
	}
	nw, _ := New("NW")
	if nw.SharedMemPerCTA() != 2180 {
		t.Error("NW shared memory should be 2180B")
	}
}

func TestTable2Partitions(t *testing.T) {
	yp := map[string]bool{"MM": true, "NN": true, "IMD": true, "HS": true, "NBO": true, "3CV": true}
	for _, app := range Table2() {
		want := kernel.ColMajor
		if yp[app.Name()] {
			want = kernel.RowMajor
		}
		if app.Partition() != want {
			t.Errorf("%s partition = %v, want %v", app.Name(), app.Partition(), want)
		}
	}
}

func TestDependenceAnalysisMatchesTable2(t *testing.T) {
	// The framework's PartitionDirection must derive the Table 2
	// partition column from each app's declared reference structure.
	for _, app := range Table2() {
		got := locality.PartitionDirection(app.GridDim(), app.ArrayRefs())
		if got != app.Partition() {
			t.Errorf("%s: dependence analysis chose %v, Table 2 says %v",
				app.Name(), got, app.Partition())
		}
	}
}

func TestWorkDeterministic(t *testing.T) {
	for _, name := range []string{"MM", "HST", "BTR", "BFS", "NW"} {
		app, _ := New(name)
		l := kernel.Launch{CTA: 7}
		w1 := app.Work(l)
		w2 := app.Work(l)
		if !reflect.DeepEqual(w1, w2) {
			t.Errorf("%s: Work is not deterministic", name)
		}
	}
}

// TestCapacityHintsExact pins every generator's slices.Grow hint to
// exactly the number of ops it appends. A CTA appended after a one-op
// prefix into a trace with exactly that much spare capacity must not
// allocate (an over-reserving hint reallocates; so would a gather's lane
// array escaping to the heap), and into a trace with no spare capacity
// must allocate once per warp (an under-reserving hint reallocates
// again mid-loop). Under the agent transform either miss costs a copy
// of everything the agent's slot buffer holds.
func TestCapacityHintsExact(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are only meaningful uninstrumented")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, name := range Names() {
		app, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, cta := range []int{0, app.GridDim().Count() - 1} {
			want := app.Work(kernel.Launch{CTA: cta}).Warps
			for _, spare := range []bool{true, false} {
				buf := make([][]kernel.Op, len(want))
				for w := range buf {
					n := 1
					if spare {
						n += len(want[w])
					}
					buf[w] = append(make([]kernel.Op, 0, n), kernel.Compute(1))
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				app.Work(kernel.Launch{CTA: cta, Buf: buf})
				runtime.ReadMemStats(&after)
				got, exp := after.Mallocs-before.Mallocs, uint64(len(want))
				if spare {
					exp = 0
				}
				if got != exp {
					t.Errorf("%s CTA %d (spare capacity %v): Work allocated %d times, want %d — a capacity hint is not exact",
						name, cta, spare, got, exp)
				}
			}
		}
	}
}

func TestTracesWellFormed(t *testing.T) {
	for _, app := range Figure3() {
		total := app.GridDim().Count()
		if total <= 0 {
			t.Fatalf("%s: empty grid", app.Name())
		}
		// Sample a few CTAs.
		for _, cta := range []int{0, total / 2, total - 1} {
			work := app.Work(kernel.Launch{CTA: cta})
			if len(work.Warps) != app.WarpsPerCTA() {
				t.Fatalf("%s CTA %d: %d warps, want %d", app.Name(), cta, len(work.Warps), app.WarpsPerCTA())
			}
			// All warps must agree on barrier count or the CTA deadlocks.
			barriers := -1
			for w, ops := range work.Warps {
				n := 0
				for _, op := range ops {
					if op.Kind == kernel.OpBarrier {
						n++
					}
					if op.Kind == kernel.OpMem && op.Mem.Lanes == 0 {
						t.Fatalf("%s CTA %d warp %d: zero-lane access", app.Name(), cta, w)
					}
				}
				if barriers == -1 {
					barriers = n
				} else if n != barriers {
					t.Fatalf("%s CTA %d: warp %d has %d barriers, warp 0 has %d",
						app.Name(), cta, w, n, barriers)
				}
			}
		}
	}
}

func TestAppsFitAllPlatforms(t *testing.T) {
	for _, app := range Figure3() {
		for _, ar := range arch.All() {
			occ := ar.OccupancyFor(app.WarpsPerCTA(), app.RegsPerThread(ar.Gen), app.SharedMemPerCTA())
			if occ.CTAsPerSM < 1 {
				t.Errorf("%s does not fit on %s", app.Name(), ar.Name)
			}
		}
	}
}

// TestByCategory pins Table 2's category counts.
func TestByCategory(t *testing.T) {
	count := map[locality.Category]int{}
	for _, a := range Table2() {
		count[a.Category()]++
	}
	if count[locality.Algorithm] != 8 {
		t.Errorf("algorithm apps = %d, want 8", count[locality.Algorithm])
	}
	if count[locality.CacheLine] != 8 {
		t.Errorf("cache-line apps = %d, want 8 (COR included)", count[locality.CacheLine])
	}
}

func TestMicrobenchGeometry(t *testing.T) {
	// Listing 3 lines 18-21.
	want := map[string]int{"GTX570": 480, "TeslaK40": 960, "GTX980": 1024, "GTX1080": 1280}
	for _, ar := range arch.All() {
		mb := NewMicrobench(ar, false)
		if got := mb.GridDim().Count(); got != want[ar.Name] {
			t.Errorf("%s microbench CTAs = %d, want %d", ar.Name, got, want[ar.Name])
		}
		if mb.WarpsPerCTA() != 1 {
			t.Error("microbench must be one warp per CTA")
		}
		occ := ar.OccupancyFor(1, mb.RegsPerThread(ar.Gen), mb.SharedMemPerCTA())
		if occ.CTAsPerSM != ar.CTASlots {
			t.Errorf("%s: microbench occupancy %d, want all %d CTA slots",
				ar.Name, occ.CTAsPerSM, ar.CTASlots)
		}
	}
}

func TestMicrobenchWorkUsesSMID(t *testing.T) {
	ar := arch.TeslaK40()
	mb := NewMicrobench(ar, false)
	w0 := mb.Work(kernel.Launch{CTA: 0, SM: 0})
	w1 := mb.Work(kernel.Launch{CTA: 0, SM: 5})
	a0 := w0.Warps[0][1].Mem.Base
	a1 := w1.Warps[0][1].Mem.Base
	if a1-a0 != 5*128 {
		t.Errorf("smid-indexed load: SM5-SM0 delta = %d, want 640 (32 floats)", a1-a0)
	}
	// Staggered variant prepends a delay proportional to the CTA id.
	st := NewMicrobench(ar, true)
	w := st.Work(kernel.Launch{CTA: 3, SM: 0})
	if w.Warps[0][0].Kind != kernel.OpCompute || w.Warps[0][0].Cycles != 3*MicrobenchDelay {
		t.Errorf("stagger op wrong: %+v", w.Warps[0][0])
	}
}

func TestLCGDeterministic(t *testing.T) {
	a, b := lcg(42), lcg(42)
	for i := 0; i < 10; i++ {
		if a.next() != b.next() {
			t.Fatal("lcg not deterministic")
		}
	}
	r := lcg(1)
	if r.intn(0) != 0 {
		t.Error("intn(0) should be 0")
	}
	for i := 0; i < 100; i++ {
		if v := r.intn(7); v < 0 || v >= 7 {
			t.Fatalf("intn out of range: %d", v)
		}
	}
}
