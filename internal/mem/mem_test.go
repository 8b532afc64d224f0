package mem

import (
	"testing"

	"ctacluster/internal/arch"
)

func TestReadLatencies(t *testing.T) {
	ar := arch.TeslaK40()
	s := New(ar)
	// Cold read: DRAM latency.
	done := s.Read(0, 0, 0x1000, 32)
	if done < int64(ar.DRAMLatency) {
		t.Errorf("cold read done=%d, want >= DRAM latency %d", done, ar.DRAMLatency)
	}
	// Second read of the same line: L2 hit latency.
	done = s.Read(1000, 0, 0x1000, 32)
	if done-1000 > int64(ar.L2Latency)+8 {
		t.Errorf("warm read latency=%d, want ~L2 latency %d", done-1000, ar.L2Latency)
	}
	if done-1000 < int64(ar.L2Latency) {
		t.Errorf("warm read latency=%d below L2 latency", done-1000)
	}
}

func TestReadTransactionCounting(t *testing.T) {
	ar := arch.GTX570()
	s := New(ar)
	// A 128B L1-line fill is four 32B transactions (Section 3.1-(1)).
	s.Read(0, 0, 0x2000, 128)
	if got := s.Stats().ReadTransactions; got != 4 {
		t.Errorf("read transactions = %d, want 4", got)
	}
	// Unaligned spans still cover every byte.
	s = New(ar)
	s.Read(0, 0, 0x3010, 64) // crosses three 32B lines? 0x3010..0x3050: lines 0x3000,0x3020,0x3040
	if got := s.Stats().ReadTransactions; got != 3 {
		t.Errorf("unaligned read transactions = %d, want 3", got)
	}
}

func TestBankSerialisation(t *testing.T) {
	ar := arch.TeslaK40()
	s := New(ar)
	// Distinct cold lines mapping to the same bank and DRAM channel,
	// hammered at the same cycle: completion must strictly increase.
	step := uint64(ar.L2Banks*ar.DRAMChannels) * uint64(ar.L2Line)
	var last int64 = -1
	for i := 0; i < 8; i++ {
		done := s.Read(0, i%ar.SMs, 0x4000+uint64(i)*step, 32)
		if done <= last {
			t.Fatalf("bank did not serialise: done=%d last=%d", done, last)
		}
		last = done
	}
}

func TestNoCPortBandwidth(t *testing.T) {
	ar := arch.TeslaK40() // NoCBandwidth 1
	s := New(ar)
	// One SM injecting many transactions at once queues at its port;
	// different SMs do not queue on each other's ports.
	d1 := s.Read(0, 0, 0x10000, 32)
	d2 := s.Read(0, 0, 0x20020, 32) // different bank, same SM port
	if d2 <= d1-int64(ar.DRAMLatency)+1 && d2 == d1 {
		t.Errorf("port should delay the second same-cycle injection")
	}
	s2 := New(ar)
	a := s2.Read(0, 0, 0x10000, 32)
	b := s2.Read(0, 1, 0x20020, 32) // different SM: no port conflict
	if b > a && b-a > 4 {
		t.Errorf("different SMs should not serialise on ports: %d vs %d", a, b)
	}
}

func TestWriteCountsAndAllocates(t *testing.T) {
	ar := arch.TeslaK40()
	s := New(ar)
	s.Write(0, 0, 0x5000, 32)
	st := s.Stats()
	if st.WriteTransactions != 1 {
		t.Errorf("write transactions = %d, want 1", st.WriteTransactions)
	}
	if st.DRAMReads != 1 {
		t.Errorf("write-allocate should fetch from DRAM once, got %d", st.DRAMReads)
	}
	// A read of the written line now hits L2 (write-allocate installed it).
	before := s.Stats().DRAMReads
	s.Read(100, 0, 0x5000, 32)
	if s.Stats().DRAMReads != before {
		t.Error("read after write-allocate should hit in L2")
	}
}

func TestAtomicSerialisesAndCounts(t *testing.T) {
	ar := arch.TeslaK40()
	s := New(ar)
	s.Read(0, 0, 0x6000, 32) // prime the line into L2
	d1 := s.Atomic(1000, 0, 0x6000)
	d2 := s.Atomic(1000, 1, 0x6000)
	if d2 <= d1 {
		t.Error("atomics to one warm address must serialise at the bank")
	}
	if s.Stats().AtomicTransactions != 2 {
		t.Error("atomic transactions not counted")
	}
}

func TestDRAMBandwidthBinds(t *testing.T) {
	ar := arch.GTX570()
	s := New(ar)
	// Stream many distinct cold lines from many SMs: completion time per
	// transaction must eventually exceed the unloaded DRAM latency
	// because the channels saturate.
	var worst int64
	n := 2000
	for i := 0; i < n; i++ {
		done := s.Read(0, i%ar.SMs, uint64(0x100000+i*64), 32)
		if done > worst {
			worst = done
		}
	}
	min := int64(ar.DRAMLatency)
	if worst <= min*2 {
		t.Errorf("DRAM channels did not saturate: worst=%d", worst)
	}
	if s.Stats().DRAMReads != uint64(n) {
		t.Errorf("DRAM reads = %d, want %d", s.Stats().DRAMReads, n)
	}
}

func TestDrainWritebacks(t *testing.T) {
	ar := arch.TeslaK40()
	s := New(ar)
	s.Write(0, 0, 0x7000, 32)
	s.Drain()
	if s.Stats().DRAMWrites == 0 {
		t.Error("drain should write back the dirty line")
	}
}
