package mem

import (
	"testing"

	"ctacluster/internal/arch"
)

// chipletArch derives the n-die TeslaK40 variant or fails the test.
func chipletArch(t *testing.T, dies int) *arch.Arch {
	t.Helper()
	a, err := arch.WithChiplets(arch.TeslaK40(), dies)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestChipletRemoteCounting pins the interposer accounting: a slice
// miss homed on the requester's own die counts nothing, a miss homed on
// the other die counts one remote transaction and L2Line interposer
// bytes, and a warm re-read (slice hit) crosses nothing either way.
func TestChipletRemoteCounting(t *testing.T) {
	ar := chipletArch(t, 2)
	s := New(ar)
	// SM 0 lives on die 0 (contiguous blocks). Page 0 is homed on die 0,
	// page 1 on die 1 (4KB round-robin).
	local := uint64(0 * DieHomePage)
	remote := uint64(1 * DieHomePage)

	s.Read(0, 0, local, 32)
	if st := s.Stats(); st.RemoteL2Transactions != 0 || st.InterposerBytes != 0 {
		t.Fatalf("die-local miss counted remote traffic: %+v", st)
	}

	s.Read(0, 0, remote, 32)
	st := s.Stats()
	if st.RemoteL2Transactions != 1 {
		t.Fatalf("remote-homed miss: RemoteL2Transactions = %d, want 1", st.RemoteL2Transactions)
	}
	if want := uint64(ar.L2Line); st.InterposerBytes != want {
		t.Fatalf("InterposerBytes = %d, want %d (one L2 line)", st.InterposerBytes, want)
	}

	// Warm re-read: the line now lives in die 0's slice; no new crossing.
	s.Read(1000, 0, remote, 32)
	if got := s.Stats().RemoteL2Transactions; got != 1 {
		t.Fatalf("slice hit crossed the interposer: RemoteL2Transactions = %d, want still 1", got)
	}

	// An SM on die 1 (SM 14 on the 8+7 split) reading the same remote
	// page is die-local for it — the page is homed on its die.
	s.Read(2000, ar.SMs-1, remote+64, 32)
	if got := s.Stats().RemoteL2Transactions; got != 1 {
		t.Fatalf("home-die miss crossed the interposer: RemoteL2Transactions = %d, want still 1", got)
	}
}

// TestChipletRemoteLatency pins the completion-time half of the
// penalty: a remote-homed cold miss finishes RemoteHopLatency later
// than a local-homed one issued under identical conditions.
func TestChipletRemoteLatency(t *testing.T) {
	ar := chipletArch(t, 2)
	localDone := New(ar).Read(0, 0, 0*DieHomePage, 32)
	remoteDone := New(ar).Read(0, 0, 1*DieHomePage, 32)
	if want := localDone + int64(ar.RemoteHopLatency); remoteDone != want {
		t.Errorf("remote miss done = %d, want %d (local %d + hop %d)",
			remoteDone, want, localDone, ar.RemoteHopLatency)
	}
}

// TestChipletWriteAckStaysLocal pins the store path: a write to a
// remote-homed page counts the interposer fill but its ack is die-local
// — the completion matches a local-homed write's exactly.
func TestChipletWriteAckStaysLocal(t *testing.T) {
	ar := chipletArch(t, 2)
	localDone := New(ar).Write(0, 0, 0*DieHomePage, 32)
	s := New(ar)
	remoteDone := s.Write(0, 0, 1*DieHomePage, 32)
	if remoteDone != localDone {
		t.Errorf("remote-homed write ack = %d, want %d (no hop on store acks)", remoteDone, localDone)
	}
	if got := s.Stats().RemoteL2Transactions; got != 1 {
		t.Errorf("remote-homed write-allocate fill: RemoteL2Transactions = %d, want 1", got)
	}
}

// TestChipletLinkOccupancy pins the bandwidth half of the penalty:
// back-to-back remote misses from one die serialise on its egress link
// at InterposerInterval spacing, so the second finishes at least that
// much after the first.
func TestChipletLinkOccupancy(t *testing.T) {
	ar := chipletArch(t, 2)
	s := New(ar)
	// Two cold misses from die 0, both homed on die 1, different L2
	// lines and different DRAM channels (different page offsets).
	a := s.Read(0, 0, 1*DieHomePage, 32)
	b := s.Read(0, 1, 1*DieHomePage+uint64(ar.L2Line), 32)
	gap := b - a
	if gap < 0 {
		gap = -gap
	}
	if gap < int64(ar.InterposerInterval)-1 {
		t.Errorf("concurrent remote misses finished %d apart, want >= ~InterposerInterval %d (link not occupied)",
			gap, ar.InterposerInterval)
	}
	if got := s.Stats().RemoteL2Transactions; got != 2 {
		t.Errorf("RemoteL2Transactions = %d, want 2", got)
	}
}

// TestChipletSliceCapacity pins the capacity split: each die's slice is
// L2Size/Chiplets bytes, so a working set that fits the monolithic L2
// but not a half slice starts missing on the chiplet descriptor. The
// probe re-reads the first line after streaming 3/4 of L2Size through
// one SM: the monolithic L2 still holds it; a 2-die slice (half the
// capacity) has evicted it.
func TestChipletSliceCapacity(t *testing.T) {
	mono := arch.TeslaK40()
	chip := chipletArch(t, 2)
	stream := func(s *System) (reReadLatency int64) {
		line := uint64(mono.L2Line)
		n := uint64(3*mono.L2Size/4) / line
		for i := uint64(0); i < n; i++ {
			s.Read(0, 0, i*line, 32)
		}
		before := s.Stats().DRAMReads
		done := s.Read(1<<40, 0, 0, 32) // far-future re-read of line 0, no queueing
		if s.Stats().DRAMReads == before {
			return 0 // L2 hit
		}
		_ = done
		return 1 // went to DRAM
	}
	if stream(New(mono)) != 0 {
		t.Error("monolithic L2 evicted a working set half its size")
	}
	if stream(New(chip)) != 1 {
		t.Error("2-die slice held a working set equal to its full capacity — slices are not L2Size/Chiplets")
	}
}

// TestChipletMonolithicStatsZero pins the byte-identity prerequisite:
// no monolithic code path can touch the chiplet counters.
func TestChipletMonolithicStatsZero(t *testing.T) {
	s := New(arch.TeslaK40())
	for i := uint64(0); i < 64; i++ {
		s.Read(int64(i), int(i)%15, i*4096, 128)
		s.Write(int64(i), int(i)%15, 1<<30+i*4096, 32)
		s.Atomic(int64(i), int(i)%15, 2<<30+i*8)
	}
	st := s.Stats()
	if st.RemoteL2Transactions != 0 || st.InterposerBytes != 0 {
		t.Fatalf("monolithic run produced chiplet counters: %+v", st)
	}
}

// TestChipletObserverRemoteFlag pins the observer contract: the remote
// argument is true exactly for interposer-crossing transactions.
func TestChipletObserverRemoteFlag(t *testing.T) {
	ar := chipletArch(t, 2)
	s := New(ar)
	var remotes, total int
	s.SetObserver(func(at int64, smID int, addr uint64, kind TxnKind, l2Hit, remote bool) {
		total++
		if remote {
			remotes++
			if l2Hit {
				t.Errorf("transaction at %d flagged both l2Hit and remote — hits never cross the interposer", at)
			}
		}
	})
	s.Read(0, 0, 0*DieHomePage, 32) // local miss
	s.Read(0, 0, 1*DieHomePage, 32) // remote miss
	s.Read(9999, 0, 1*DieHomePage, 32)
	if total != 3 {
		t.Fatalf("observer saw %d transactions, want 3", total)
	}
	if remotes != 1 {
		t.Fatalf("observer flagged %d remote transactions, want exactly 1", remotes)
	}
}

// TestChipletRemoteBoundedByDRAMReads pins the counter invariant the
// Stats doc promises: every remote transaction is a DRAM-serviced miss.
func TestChipletRemoteBoundedByDRAMReads(t *testing.T) {
	for _, dies := range []int{2, 3, 5} {
		s := New(chipletArch(t, dies))
		for i := uint64(0); i < 256; i++ {
			s.Read(int64(i), int(i)%15, i*1111, 64)
		}
		st := s.Stats()
		if st.RemoteL2Transactions > st.DRAMReads {
			t.Errorf("dies=%d: RemoteL2Transactions %d > DRAMReads %d", dies, st.RemoteL2Transactions, st.DRAMReads)
		}
		if st.InterposerBytes != st.RemoteL2Transactions*uint64(s.ar.L2Line) {
			t.Errorf("dies=%d: InterposerBytes %d != remote txns %d * line %d", dies, st.InterposerBytes, st.RemoteL2Transactions, s.ar.L2Line)
		}
	}
}
