// Package rescache is the daemon's content-addressed result cache:
// deterministic simulations are memoized under a canonical hash of
// everything that feeds the run (architecture, kernel identity, scheme,
// engine configuration). Because the engine is deterministic for a
// fixed seed, two requests with equal keys are guaranteed byte-identical
// responses, which is what makes memoization sound (DESIGN.md §8).
// Serving infrastructure beyond the paper's scope: it memoizes the
// Section 5 evaluation runs but models nothing from the paper itself.
//
// The package has three pieces: the canonical Key builder (this file),
// a bounded LRU byte cache (cache.go) and a singleflight group that
// coalesces concurrent identical computations (singleflight.go).
package rescache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"

	"ctacluster/internal/arch"
	"ctacluster/internal/engine"
)

// Key accumulates typed fields into a canonical hash. Every value is
// written with a type tag and, for strings, a length prefix, so field
// sequences cannot collide by concatenation ambiguity ("ab"+"c" vs
// "a"+"bc"). Only value types go in — never pointers, never map
// iterations — so equal logical inputs hash identically across
// processes and runs.
type Key struct {
	h hash.Hash
}

// NewKey starts a key in the given domain (e.g. "simulate/v1"). The
// domain separates key spaces so different endpoints can never alias.
func NewKey(domain string) *Key {
	k := &Key{h: sha256.New()}
	return k.Str(domain)
}

func (k *Key) tag(t byte) { k.h.Write([]byte{t}) }

// Str appends a length-prefixed string field.
func (k *Key) Str(v string) *Key {
	k.tag('s')
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(len(v)))
	k.h.Write(buf[:])
	k.h.Write([]byte(v))
	return k
}

// Int appends a signed integer field.
func (k *Key) Int(v int64) *Key {
	k.tag('i')
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(v))
	k.h.Write(buf[:])
	return k
}

// Uint appends an unsigned integer field.
func (k *Key) Uint(v uint64) *Key {
	k.tag('u')
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	k.h.Write(buf[:])
	return k
}

// Bool appends a boolean field.
func (k *Key) Bool(v bool) *Key {
	if v {
		k.tag('T')
	} else {
		k.tag('F')
	}
	return k
}

// Strs appends a list of strings with an explicit length, so adjacent
// lists cannot bleed into each other.
func (k *Key) Strs(vs []string) *Key {
	k.Int(int64(len(vs)))
	for _, v := range vs {
		k.Str(v)
	}
	return k
}

// Sum finalizes the key as a hex digest. The Key must not be written to
// afterwards.
func (k *Key) Sum() string {
	return hex.EncodeToString(k.h.Sum(nil))
}

// Arch appends every field of the architecture descriptor in the fixed
// declaration order of arch.Arch. The descriptor is encoded by value —
// two separately-allocated descriptors of the same platform hash
// identically. archFieldCount pins the coverage: key_test.go checks it
// against reflect so adding a field to arch.Arch without extending this
// encoder fails the build's tests rather than silently serving stale
// cache entries.
// 24 → 27: the chiplet fields. All three are result-affecting — the
// die split changes slice capacities and the interposer penalties
// change completion times — so they are encoded, and a chiplet-derived
// descriptor can never alias its monolithic parent (its Name differs
// too, but the key does not rely on that).
const archFieldCount = 27

func (k *Key) Arch(a *arch.Arch) *Key {
	k.Str(a.Name)
	k.Int(int64(a.Gen))
	k.Str(a.CC)
	k.Int(int64(a.SMs))
	k.Int(int64(a.WarpSlots))
	k.Int(int64(a.CTASlots))
	k.Int(int64(a.Registers))
	k.Int(int64(a.SharedMem))
	k.Int(int64(a.L1Size))
	k.Int(int64(a.L1Line))
	k.Int(int64(a.L1Assoc))
	k.Bool(a.L1Sectored)
	k.Int(int64(a.L2Size))
	k.Int(int64(a.L2Line))
	k.Int(int64(a.L2Assoc))
	k.Int(int64(a.L2Banks))
	k.Int(int64(a.L1Latency))
	k.Int(int64(a.L2Latency))
	k.Int(int64(a.DRAMLatency))
	k.Int(int64(a.NoCBandwidth))
	k.Int(int64(a.DRAMChannels))
	k.Int(int64(a.DRAMInterval))
	k.Int(int64(a.DefaultScheduler))
	k.Bool(a.StaticWarpSlotBinding)
	k.Int(int64(a.Chiplets))
	k.Int(int64(a.RemoteHopLatency))
	k.Int(int64(a.InterposerInterval))
	return k
}

// configFieldCount pins engine.Config coverage the same way: every
// field is encoded below.
const configFieldCount = 7

// Config appends every result-relevant field of the engine
// configuration. The Arch pointer is encoded by value via Arch; the
// Profiler is encoded only by presence — profiling observes a run
// without changing its outcome, so two configs that differ only in
// which profiler implementation they carry produce the same simulation
// results.
func (k *Key) Config(cfg engine.Config) *Key {
	if cfg.Arch == nil {
		k.Bool(false)
	} else {
		k.Bool(true)
		k.Arch(cfg.Arch)
	}
	k.Int(int64(cfg.Scheduler))
	k.Bool(cfg.UseArchDefault)
	k.Bool(cfg.L1Enabled)
	k.Int(cfg.Seed)
	k.Int(cfg.MaxCycles)
	k.Bool(cfg.Profiler != nil)
	return k
}

// ConfigKey is the canonical key of one engine run: the kernel identity
// (the caller's canonical description of app + scheme + transform
// parameters) and the CTA swizzle applied under it, under the full
// engine configuration. The swizzle is its own key field — NOT folded
// into kernelID — because a swizzle
// changes the dispatch-order → tile mapping and therefore every cache
// statistic and cycle count the run produces ("" means no swizzle).
func ConfigKey(kernelID, swizzle string, cfg engine.Config) string {
	return NewKey("engine-run/v1").Str(kernelID).Str(swizzle).Config(cfg).Sum()
}
