package mem

// Memory-hierarchy golden: one fixed script of reads (32/64/128B spans,
// aligned and not), write-allocate misses, dirty evictions, atomics and
// a final Drain, run on two monolithic GPUs and one 2-die chiplet
// variant. The golden records each call's completion time, every
// observer tuple together with the counters it was emitted against,
// and the final Stats/L2Stats, so any change to the order or timing of
// the miss path's side effects shows up as a diff. Regenerate
// deliberately with `go test ./internal/mem -run Golden -update` and
// review the diff.

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ctacluster/internal/arch"
)

var update = flag.Bool("update", false, "rewrite the mem golden files")

// scriptRNG is a fixed xorshift64 stream, so the script never depends
// on the standard library's generator.
type scriptRNG uint64

func (r *scriptRNG) next() uint64 {
	x := uint64(*r)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*r = scriptRNG(x)
	return x
}

func (r *scriptRNG) intn(n int) int { return int(r.next() % uint64(n)) }

// runScript drives s through the golden script and returns the log.
func runScript(ar *arch.Arch, s *System) []byte {
	var b bytes.Buffer
	s.SetObserver(func(at int64, smID int, addr uint64, kind TxnKind, l2Hit, remote bool) {
		st, l2 := s.Stats(), s.L2Stats()
		fmt.Fprintf(&b, "  obs at=%d sm=%d addr=%#x %s hit=%t remote=%t | dram=%d rem=%d l2r=%d l2w=%d fills=%d wb=%d\n",
			at, smID, addr, kind, l2Hit, remote,
			st.DRAMReads, st.RemoteL2Transactions, l2.Reads, l2.Writes, l2.Fills, l2.Writebacks)
	})
	read := func(now int64, sm int, base uint64, n int) {
		fmt.Fprintf(&b, "read t=%d sm=%d base=%#x n=%d -> %d\n", now, sm, base, n, s.Read(now, sm, base, n))
	}
	write := func(now int64, sm int, base uint64, n int) {
		fmt.Fprintf(&b, "write t=%d sm=%d base=%#x n=%d -> %d\n", now, sm, base, n, s.Write(now, sm, base, n))
	}
	atomic := func(now int64, sm int, addr uint64) {
		fmt.Fprintf(&b, "atomic t=%d sm=%d addr=%#x -> %d\n", now, sm, addr, s.Atomic(now, sm, addr))
	}
	last := ar.SMs - 1

	// Cold reads of every span size, aligned and unaligned, from SMs on
	// both ends of the SM range (both dies on a chiplet descriptor),
	// touching pages homed on either die; then warm re-reads.
	read(0, 0, 0x0000, 32)
	read(0, 0, 0x1000, 64)
	read(0, last, 0x2000, 128)
	read(1, last, 0x3010, 64)
	read(1, 1, 0x4038, 128)
	read(2, last-1, 0x5004, 32)
	read(400, 0, 0x1000, 64)
	read(401, last, 0x0000, 128)
	read(402, 1, 0x2000, 32)

	// Write-allocate misses, then write hits on resident and
	// just-allocated lines, and a partial-line store.
	write(500, 0, 0x8000, 32)
	write(500, last, 0x9000, 64)
	write(501, 2, 0xa010, 128)
	write(600, 0, 0x8000, 32)
	write(600, 0, 0x1000, 64)
	write(601, last, 0x9020, 8)

	// Dirty evictions: overflow one L2 set (of the die-0 slice on a
	// chiplet descriptor) with stores, then push the dirty lines out
	// again with reads.
	setStride := uint64(ar.L2Size/max(ar.Chiplets, 1)/ar.L2Assoc/ar.L2Line) * uint64(ar.L2Line)
	for k := 0; k < ar.L2Assoc+3; k++ {
		write(700+int64(k), 0, 0x40000+uint64(k)*setStride, 32)
	}
	for k := 0; k < ar.L2Assoc+2; k++ {
		read(800+int64(k), 1, 0x40000+uint64(ar.L2Assoc+3+k)*setStride, 32)
	}

	// Atomics: hot (resident) and cold lines, the same address from two
	// SMs in one cycle, and a burst on one bank.
	atomic(900, 0, 0x1000)
	atomic(900, last, 0x1000)
	atomic(901, 2, 0xc000)
	atomic(901, last, 0xd000)
	for i := 0; i < 4; i++ {
		atomic(950, i, 0x1000+uint64(i*ar.L2Banks*ar.L2Line))
	}

	// A seeded mixed phase: many SMs at close cycles over a 64KB window,
	// so NoC ports, banks, DRAM channels and (on a chiplet descriptor)
	// interposer links all queue.
	rng := scriptRNG(0x9e3779b97f4a7c15)
	spans := [3]int{32, 64, 128}
	now := int64(1000)
	for i := 0; i < 160; i++ {
		now += int64(rng.intn(3))
		sm := rng.intn(ar.SMs)
		addr := uint64(rng.intn(64*1024/8)) * 8
		switch op := rng.intn(10); {
		case op < 6:
			read(now, sm, addr, spans[rng.intn(3)])
		case op < 9:
			write(now, sm, addr, spans[rng.intn(3)])
		default:
			atomic(now, sm, addr&^3)
		}
	}

	s.Drain()
	fmt.Fprintf(&b, "drain\nstats %+v\nl2 %+v\n", s.Stats(), s.L2Stats())
	return b.Bytes()
}

func TestGoldenScript(t *testing.T) {
	k40x2, err := arch.WithChiplets(arch.TeslaK40(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		file string
		ar   *arch.Arch
	}{
		{"script_teslak40.txt", arch.TeslaK40()},
		{"script_gtx1080.txt", arch.GTX1080()},
		{"script_teslak40_2die.txt", k40x2},
	} {
		t.Run(tc.ar.Name, func(t *testing.T) {
			got := runScript(tc.ar, New(tc.ar))
			path := filepath.Join("testdata", tc.file)
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden %s (regenerate with -update): %v", path, err)
			}
			if !bytes.Equal(got, want) {
				gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
				for i := 0; i < len(gl) && i < len(wl); i++ {
					if !bytes.Equal(gl[i], wl[i]) {
						t.Fatalf("%s drifted from golden at line %d (regenerate with -update and review):\n got: %s\nwant: %s", tc.file, i+1, gl[i], wl[i])
					}
				}
				t.Fatalf("%s drifted from golden: %d lines, want %d", tc.file, len(gl), len(wl))
			}
		})
	}
}
