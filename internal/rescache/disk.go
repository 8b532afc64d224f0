package rescache

// Persistent tier of the content-addressed result cache (DESIGN.md §10).
// The in-memory LRU (cache.go) stays the front; DiskCache is the
// durable back: one file per entry under a two-hex-character shard
// directory, written atomically (tmp + fsync + rename + directory
// fsync) so a crash at any instant leaves either the old state or the
// new entry, never a torn file. Every read re-verifies the entry —
// magic, lengths, embedded key and a sha256 checksum over the whole
// record — and anything that fails verification is quarantined and
// treated as a miss: the cache may forget under corruption, but it can
// never serve wrong bytes. Because entries are keyed by the canonical
// content hash (key.go), a warm directory copied to another daemon is
// immediately valid there.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// Entry file layout (all integers little-endian):
//
//	[0:8)    magic "CTADRES1"
//	[8:12)   keyLen   uint32
//	[12:20)  valLen   uint64
//	[20:20+keyLen)         key (the hex digest the entry is stored under)
//	[.. +valLen)           payload
//	[last 32 bytes]        sha256 over everything before it
//
// The decoder demands the exact total length, so the encoding is
// canonical: for any bytes that decode successfully, re-encoding the
// decoded (key, payload) reproduces the input bit for bit. That is the
// property FuzzDiskCacheEntry pins — a mutated file can only ever fail
// (and be quarantined), never decode into a different payload.

const (
	diskMagic      = "CTADRES1"
	diskHeaderLen  = 8 + 4 + 8
	diskSumLen     = sha256.Size
	maxDiskKeyLen  = 1 << 10 // keys are 64-char hex digests; anything bigger is garbage
	entrySuffix    = ".entry"
	tmpSuffix      = ".tmp"
	quarantineName = "quarantine"
)

// errCorrupt tags any verification failure of an on-disk entry.
var errCorrupt = errors.New("corrupt disk cache entry")

// encodeEntry renders one entry record.
func encodeEntry(key string, val []byte) []byte {
	n := diskHeaderLen + len(key) + len(val) + diskSumLen
	buf := make([]byte, 0, n)
	buf = append(buf, diskMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(key)))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(val)))
	buf = append(buf, key...)
	buf = append(buf, val...)
	sum := sha256.Sum256(buf)
	return append(buf, sum[:]...)
}

// decodeEntry verifies and splits one entry record. Every failure mode
// returns an error wrapping errCorrupt; a nil error guarantees the
// record is the canonical encoding of the returned (key, payload).
func decodeEntry(data []byte) (key string, val []byte, err error) {
	if len(data) < diskHeaderLen+diskSumLen {
		return "", nil, fmt.Errorf("%w: %d bytes is shorter than any entry", errCorrupt, len(data))
	}
	if string(data[:8]) != diskMagic {
		return "", nil, fmt.Errorf("%w: bad magic", errCorrupt)
	}
	keyLen := binary.LittleEndian.Uint32(data[8:12])
	valLen := binary.LittleEndian.Uint64(data[12:20])
	if keyLen > maxDiskKeyLen {
		return "", nil, fmt.Errorf("%w: key length %d exceeds limit", errCorrupt, keyLen)
	}
	// The exact-length check below is done in uint64 so a huge valLen
	// cannot overflow into a plausible total.
	want := uint64(diskHeaderLen) + uint64(keyLen) + valLen + uint64(diskSumLen)
	if uint64(len(data)) != want {
		return "", nil, fmt.Errorf("%w: length %d, header promises %d", errCorrupt, len(data), want)
	}
	body := data[:len(data)-diskSumLen]
	sum := sha256.Sum256(body)
	if !bytes.Equal(sum[:], data[len(data)-diskSumLen:]) {
		return "", nil, fmt.Errorf("%w: checksum mismatch", errCorrupt)
	}
	key = string(data[diskHeaderLen : diskHeaderLen+keyLen])
	val = append([]byte(nil), data[diskHeaderLen+keyLen:len(data)-diskSumLen]...)
	return key, val, nil
}

// DiskStats snapshots the persistent tier's counters.
type DiskStats struct {
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Writes      uint64 `json:"writes"`
	WriteErrors uint64 `json:"write_errors"`
	// Corruptions counts entries that failed verification on read;
	// every one is quarantined and served as a miss, never as data.
	Corruptions uint64 `json:"corruptions"`
	Quarantined uint64 `json:"quarantined"`
	// StaleTemps counts leftover temporary files (a crash between write
	// and rename) swept at open.
	StaleTemps uint64 `json:"stale_temps"`
	Entries    int    `json:"entries"`
}

// DiskCache is the durable tier: one verified file per entry under a
// sharded directory tree. All methods are safe for concurrent use; the
// mutex only guards counters and quarantine naming — file operations
// rely on the atomicity of rename.
type DiskCache struct {
	dir string

	mu    sync.Mutex
	stats DiskStats
	qseq  uint64
}

// OpenDisk opens (creating if needed) a disk cache rooted at dir and
// sweeps temporary files left behind by a crashed writer: a tmp file is
// by construction an entry that was never renamed into place, so
// removing it is always safe — the Put it belonged to never happened.
func OpenDisk(dir string) (*DiskCache, error) {
	if dir == "" {
		return nil, errors.New("rescache: empty disk cache directory")
	}
	if err := os.MkdirAll(filepath.Join(dir, quarantineName), 0o755); err != nil {
		return nil, fmt.Errorf("rescache: open disk cache: %w", err)
	}
	d := &DiskCache{dir: dir}
	if err := d.sweepStaleTemps(); err != nil {
		return nil, err
	}
	return d, nil
}

// Dir returns the cache root.
func (d *DiskCache) Dir() string { return d.dir }

// sweepStaleTemps removes *.tmp files from every shard directory.
func (d *DiskCache) sweepStaleTemps() error {
	shards, err := os.ReadDir(d.dir)
	if err != nil {
		return fmt.Errorf("rescache: sweep %s: %w", d.dir, err)
	}
	for _, sh := range shards {
		if !sh.IsDir() || !isHex(sh.Name()) {
			continue
		}
		ents, err := os.ReadDir(filepath.Join(d.dir, sh.Name()))
		if err != nil {
			continue
		}
		for _, e := range ents {
			if strings.HasSuffix(e.Name(), tmpSuffix) {
				if os.Remove(filepath.Join(d.dir, sh.Name(), e.Name())) == nil {
					d.mu.Lock()
					d.stats.StaleTemps++
					d.mu.Unlock()
				}
			}
		}
	}
	return nil
}

// isHex reports whether s is non-empty lowercase hex — the only shape a
// cache key (a sha256 hex digest) can take. Anything else never touches
// the filesystem.
func isHex(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// entryPath places key under its two-character shard directory.
func (d *DiskCache) entryPath(key string) string {
	return filepath.Join(d.dir, key[:2], key+entrySuffix)
}

// Get reads and verifies the entry for key. A missing file is a miss; a
// file that fails verification — wrong magic, torn length, flipped bit,
// or an entry whose embedded key disagrees with the name it was read
// under — is quarantined and reported as a miss. Never a wrong hit,
// never a panic.
func (d *DiskCache) Get(key string) ([]byte, bool) {
	if len(key) < 2 || !isHex(key) {
		d.count(func(s *DiskStats) { s.Misses++ })
		return nil, false
	}
	path := d.entryPath(key)
	data, err := os.ReadFile(path)
	if err != nil {
		d.count(func(s *DiskStats) { s.Misses++ })
		return nil, false
	}
	gotKey, val, err := decodeEntry(data)
	if err == nil && gotKey != key {
		err = fmt.Errorf("%w: entry is for key %.16s…, read as %.16s…", errCorrupt, gotKey, key)
	}
	if err != nil {
		d.quarantine(path)
		d.count(func(s *DiskStats) { s.Corruptions++; s.Misses++ })
		return nil, false
	}
	d.count(func(s *DiskStats) { s.Hits++ })
	return val, true
}

// Put durably stores val under key: the record is written to a
// temporary file in the destination directory, fsynced, renamed into
// place, and the directory fsynced — so after Put returns, a crash
// cannot lose the entry, and a crash during Put cannot produce a
// partial one (the tmp file is swept at the next open).
func (d *DiskCache) Put(key string, val []byte) error {
	if len(key) < 2 || !isHex(key) {
		err := fmt.Errorf("rescache: invalid disk cache key %q", key)
		d.count(func(s *DiskStats) { s.WriteErrors++ })
		return err
	}
	shardDir := filepath.Join(d.dir, key[:2])
	err := func() error {
		if err := os.MkdirAll(shardDir, 0o755); err != nil {
			return err
		}
		f, err := os.CreateTemp(shardDir, key+".*"+tmpSuffix)
		if err != nil {
			return err
		}
		tmp := f.Name()
		defer os.Remove(tmp) // no-op after a successful rename
		if _, err := f.Write(encodeEntry(key, val)); err != nil {
			f.Close()
			return err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		if err := os.Rename(tmp, d.entryPath(key)); err != nil {
			return err
		}
		return syncDir(shardDir)
	}()
	if err != nil {
		d.count(func(s *DiskStats) { s.WriteErrors++ })
		return fmt.Errorf("rescache: put %.16s…: %w", key, err)
	}
	d.count(func(s *DiskStats) { s.Writes++ })
	return nil
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// quarantine moves a failed entry aside (never deletes it — the bytes
// are evidence) so the slot reads as a miss and the next Put can
// repopulate it. If the move fails the entry is removed instead; either
// way it cannot be served again.
func (d *DiskCache) quarantine(path string) {
	d.mu.Lock()
	d.qseq++
	dst := filepath.Join(d.dir, quarantineName,
		fmt.Sprintf("%s.%d.bad", filepath.Base(path), d.qseq))
	d.mu.Unlock()
	if err := os.Rename(path, dst); err != nil {
		os.Remove(path)
	}
	d.count(func(s *DiskStats) { s.Quarantined++ })
}

func (d *DiskCache) count(f func(*DiskStats)) {
	d.mu.Lock()
	f(&d.stats)
	d.mu.Unlock()
}

// Entries walks the shard tree and counts stored entries. It is a scan,
// priced for /metrics and tests, not for hot paths.
func (d *DiskCache) Entries() int {
	n := 0
	shards, err := os.ReadDir(d.dir)
	if err != nil {
		return 0
	}
	for _, sh := range shards {
		if !sh.IsDir() || !isHex(sh.Name()) {
			continue
		}
		ents, err := os.ReadDir(filepath.Join(d.dir, sh.Name()))
		if err != nil {
			continue
		}
		for _, e := range ents {
			if strings.HasSuffix(e.Name(), entrySuffix) {
				n++
			}
		}
	}
	return n
}

// Stats snapshots the counters (Entries included — see its cost note).
func (d *DiskCache) Stats() DiskStats {
	d.mu.Lock()
	s := d.stats
	d.mu.Unlock()
	s.Entries = d.Entries()
	return s
}

// Tiered layers the in-memory LRU in front of an optional disk tier: a
// memory miss falls through to disk, and a disk hit is promoted back
// into memory. Puts write through to both. With a nil disk it degrades
// to exactly the old memory-only behaviour, which is how the daemon
// runs without -cache-dir.
type Tiered struct {
	mem  *Cache
	disk *DiskCache
}

// NewTiered builds the layered store; disk may be nil for memory-only.
func NewTiered(mem *Cache, disk *DiskCache) *Tiered {
	return &Tiered{mem: mem, disk: disk}
}

// Mem exposes the memory tier (stats, tests).
func (t *Tiered) Mem() *Cache { return t.mem }

// Disk exposes the disk tier; nil when the store is memory-only.
func (t *Tiered) Disk() *DiskCache { return t.disk }

// Get checks memory, then disk. Disk hits are promoted.
func (t *Tiered) Get(key string) ([]byte, bool) {
	if v, ok := t.mem.Get(key); ok {
		return v, true
	}
	if t.disk == nil {
		return nil, false
	}
	v, ok := t.disk.Get(key)
	if !ok {
		return nil, false
	}
	t.mem.Put(key, v)
	return v, true
}

// Put writes through to both tiers. A disk write failure is counted in
// DiskStats.WriteErrors but does not fail the Put: the memory tier
// still serves the entry for this process's lifetime, and durability
// degrades instead of availability.
func (t *Tiered) Put(key string, val []byte) {
	t.mem.Put(key, val)
	if t.disk != nil {
		t.disk.Put(key, val) // error already counted in DiskStats
	}
}
