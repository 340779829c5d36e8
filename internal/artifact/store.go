package artifact

import (
	"bytes"
	"container/list"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"cghti/internal/iofault"
	"cghti/internal/obs"
)

// meters holds the cache's metric handles, resolved per call from the
// context registry (GetCtx/PutCtx) so concurrent runs sharing one cache
// attribute their own hits and misses; the ctx-less Get/Put record into
// the process default.
type meters struct {
	hits          *obs.Counter
	misses        *obs.Counter
	diskHits      *obs.Counter
	puts          *obs.Counter
	evictions     *obs.Counter
	corrupt       *obs.Counter
	diskTorn      *obs.Counter
	ioRetries     *obs.Counter
	diskEvictions *obs.Counter
	getTime       *obs.Histogram
}

func metersFor(r *obs.Registry) *meters {
	if r == nil || r == obs.Default() {
		return defaultMeters
	}
	return newMeters(r)
}

func metersCtx(ctx context.Context) *meters { return metersFor(obs.FromContext(ctx)) }

func newMeters(r *obs.Registry) *meters {
	return &meters{
		hits:          r.Counter("artifact.cache_hits"),
		misses:        r.Counter("artifact.cache_misses"),
		diskHits:      r.Counter("artifact.disk_hits"),
		puts:          r.Counter("artifact.cache_puts"),
		evictions:     r.Counter("artifact.cache_evictions"),
		corrupt:       r.Counter("artifact.disk_corrupt"),
		diskTorn:      r.Counter("artifact.disk_torn"),
		ioRetries:     r.Counter("artifact.io_retries"),
		diskEvictions: r.Counter("artifact.disk_evictions"),
		getTime:       r.Histogram("artifact.get_time"),
	}
}

var defaultMeters = newMeters(obs.Default())

// Default memory-tier bounds applied when NewCache is given
// non-positive limits.
const (
	DefaultMaxEntries = 128
	DefaultMaxBytes   = 256 << 20
)

// Default disk-tier bounds applied when AttachDir is called without a
// preceding SetDiskLimits. Unlike the memory tier, the disk tier
// outlives the process, so an unbounded tier grows monotonically across
// runs until the filesystem fills.
const (
	DefaultDiskMaxEntries = 4096
	DefaultDiskMaxBytes   = 1 << 30
)

// Cache is a two-tier content-addressed artifact store. The memory
// tier is a bounded LRU (entry count and total payload bytes); the
// optional disk tier (AttachDir) persists entries across processes and
// is itself bounded (entry count and total file bytes) with
// oldest-written-first eviction. Disk entries carry a payload hash
// that is verified on every read: a corrupted, tampered, or torn entry
// is dropped and reported as a miss, never trusted. All methods are
// safe for concurrent use.
type Cache struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	bytes      int64
	lru        *list.List // front = most recently used
	entries    map[Fingerprint]*list.Element

	fs             iofault.FS // disk-tier filesystem seam
	dir            string
	diskMaxEntries int
	diskMaxBytes   int64
	diskBytes      int64
	diskOrder      *list.List // front = newest write, back = oldest
	diskIndex      map[Fingerprint]*list.Element
}

type cacheEntry struct {
	fp   Fingerprint
	data []byte
}

type diskEntry struct {
	fp   Fingerprint
	size int64 // on-disk file size (header + payload)
}

// NewCache returns a memory-only cache bounded by maxEntries entries
// and maxBytes total payload bytes (defaults apply to non-positive
// values).
func NewCache(maxEntries int, maxBytes int64) *Cache {
	if maxEntries <= 0 {
		maxEntries = DefaultMaxEntries
	}
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	return &Cache{
		maxEntries:     maxEntries,
		maxBytes:       maxBytes,
		lru:            list.New(),
		entries:        make(map[Fingerprint]*list.Element),
		fs:             iofault.OS(),
		diskMaxEntries: DefaultDiskMaxEntries,
		diskMaxBytes:   DefaultDiskMaxBytes,
	}
}

// SetFS replaces the disk tier's filesystem (the real OS by default).
// A test seam: iofault.NewFaulty injects deterministic I/O failures
// under the disk tier without touching the real filesystem semantics.
func (c *Cache) SetFS(fsys iofault.FS) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.fs = fsys
}

// SetDiskLimits bounds the disk tier to maxEntries entries and maxBytes
// total file bytes (non-positive values restore the defaults). When
// called after AttachDir the new bounds are enforced immediately.
func (c *Cache) SetDiskLimits(maxEntries int, maxBytes int64) {
	if maxEntries <= 0 {
		maxEntries = DefaultDiskMaxEntries
	}
	if maxBytes <= 0 {
		maxBytes = DefaultDiskMaxBytes
	}
	c.mu.Lock()
	c.diskMaxEntries = maxEntries
	c.diskMaxBytes = maxBytes
	doomed := c.evictDiskLocked(defaultMeters)
	fsys, dir := c.fs, c.dir
	c.mu.Unlock()
	removeEntries(fsys, dir, doomed)
}

// AttachDir adds the on-disk tier rooted at dir, creating it if needed.
// Pre-existing entries are indexed oldest-modified-first so eviction
// age carries across processes; entries beyond the disk bounds are
// evicted immediately.
func (c *Cache) AttachDir(dir string) error {
	c.mu.Lock()
	fsys := c.fs
	c.mu.Unlock()
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	entries, err := scanDir(fsys, dir)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.dir = dir
	c.diskOrder = list.New()
	c.diskIndex = make(map[Fingerprint]*list.Element, len(entries))
	c.diskBytes = 0
	for _, e := range entries { // oldest first, so the back stays oldest
		c.diskOrder.PushFront(&diskEntry{fp: e.fp, size: e.size})
		c.diskIndex[e.fp] = c.diskOrder.Front()
		c.diskBytes += e.size
	}
	doomed := c.evictDiskLocked(defaultMeters)
	c.mu.Unlock()
	removeEntries(fsys, dir, doomed)
	return nil
}

// scanDir lists dir's valid-looking entry files sorted by ascending
// modification time, ties broken by fingerprint. The tiebreak matters:
// on filesystems with coarse mtime granularity a whole batch of writes
// can share one timestamp, and without it the oldest-first eviction
// order would depend on ReadDir's enumeration order — different across
// restarts, so two boots of the same directory could evict different
// entries. Files whose names do not parse as fingerprints (including
// leftover .tmp files) are ignored.
func scanDir(fsys iofault.FS, dir string) ([]diskEntry, error) {
	des, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	type aged struct {
		diskEntry
		mtime int64
	}
	found := make([]aged, 0, len(des))
	for _, de := range des {
		if de.IsDir() {
			continue
		}
		raw, err := hex.DecodeString(de.Name())
		if err != nil || len(raw) != len(Fingerprint{}) {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		var fp Fingerprint
		copy(fp[:], raw)
		found = append(found, aged{diskEntry{fp: fp, size: info.Size()}, info.ModTime().UnixNano()})
	}
	sort.Slice(found, func(a, b int) bool {
		if found[a].mtime != found[b].mtime {
			return found[a].mtime < found[b].mtime
		}
		return bytes.Compare(found[a].fp[:], found[b].fp[:]) < 0
	})
	out := make([]diskEntry, len(found))
	for i, f := range found {
		out[i] = f.diskEntry
	}
	return out, nil
}

// evictDiskLocked trims the disk index to the configured bounds,
// oldest-written entries first, and returns the fingerprints whose
// files the caller must unlink after releasing the mutex (filesystem
// I/O never happens under the lock). Like the memory tier, the most
// recent entry always survives so one oversized artifact still caches.
func (c *Cache) evictDiskLocked(met *meters) []Fingerprint {
	if c.diskOrder == nil {
		return nil
	}
	var doomed []Fingerprint
	for (c.diskOrder.Len() > c.diskMaxEntries || c.diskBytes > c.diskMaxBytes) && c.diskOrder.Len() > 1 {
		el := c.diskOrder.Back()
		ent := el.Value.(*diskEntry)
		c.diskOrder.Remove(el)
		delete(c.diskIndex, ent.fp)
		c.diskBytes -= ent.size
		doomed = append(doomed, ent.fp)
		met.diskEvictions.Inc()
	}
	return doomed
}

// removeEntries unlinks evicted entry files (best effort).
func removeEntries(fsys iofault.FS, dir string, fps []Fingerprint) {
	if dir == "" {
		return
	}
	for _, fp := range fps {
		fsys.Remove(filepath.Join(dir, fp.String()))
	}
}

// noteDiskWrite records a freshly written entry in the disk index and
// returns any entries evicted to make room.
func (c *Cache) noteDiskWrite(fp Fingerprint, size int64, met *meters) {
	c.mu.Lock()
	if c.diskOrder == nil {
		c.mu.Unlock()
		return
	}
	if el, ok := c.diskIndex[fp]; ok {
		ent := el.Value.(*diskEntry)
		c.diskBytes += size - ent.size
		ent.size = size
		c.diskOrder.MoveToFront(el)
	} else {
		c.diskOrder.PushFront(&diskEntry{fp: fp, size: size})
		c.diskIndex[fp] = c.diskOrder.Front()
		c.diskBytes += size
	}
	doomed := c.evictDiskLocked(met)
	fsys, dir := c.fs, c.dir
	c.mu.Unlock()
	removeEntries(fsys, dir, doomed)
}

// dropDiskEntry removes fp from the disk index after a corrupt read
// deleted its file.
func (c *Cache) dropDiskEntry(fp Fingerprint) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.diskIndex[fp]; ok {
		ent := el.Value.(*diskEntry)
		c.diskOrder.Remove(el)
		delete(c.diskIndex, fp)
		c.diskBytes -= ent.size
	}
}

// Dir returns the attached disk directory ("" when memory-only).
func (c *Cache) Dir() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dir
}

// Len reports the number of entries resident in the memory tier.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// DiskLen reports the number of entries in the disk-tier index (0 when
// memory-only).
func (c *Cache) DiskLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.diskOrder == nil {
		return 0
	}
	return c.diskOrder.Len()
}

// DiskBytes reports the total file bytes tracked in the disk tier.
func (c *Cache) DiskBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.diskBytes
}

// Get returns the payload stored under fp, consulting the memory tier
// first, then the disk tier (promoting a verified disk entry into
// memory). Metrics go to the process default registry; use GetCtx
// inside a per-run scope.
func (c *Cache) Get(fp Fingerprint) ([]byte, bool) {
	return c.get(fp, defaultMeters)
}

// GetCtx is Get attributing its hit/miss metrics to the registry
// carried by ctx (per-run scoping). The lookup itself is identical.
func (c *Cache) GetCtx(ctx context.Context, fp Fingerprint) ([]byte, bool) {
	return c.get(fp, metersCtx(ctx))
}

// get resolves fp across the tiers, timing the whole lookup (memory
// hit, disk fallback, or miss) into the artifact.get_time histogram so
// disk-tier stalls are visible as a latency mode, not just a counter.
func (c *Cache) get(fp Fingerprint, met *meters) ([]byte, bool) {
	start := time.Now()
	defer func() { met.getTime.Observe(time.Since(start)) }()
	c.mu.Lock()
	if el, ok := c.entries[fp]; ok {
		c.lru.MoveToFront(el)
		data := el.Value.(*cacheEntry).data
		c.mu.Unlock()
		met.hits.Inc()
		return data, true
	}
	fsys, dir := c.fs, c.dir
	c.mu.Unlock()
	if dir != "" {
		data, ok, corrupt, torn := readEntry(fsys, filepath.Join(dir, fp.String()), met)
		if torn {
			met.diskTorn.Inc()
			c.dropDiskEntry(fp)
		} else if corrupt {
			met.corrupt.Inc()
			c.dropDiskEntry(fp)
		}
		if ok {
			c.install(fp, data, met)
			met.hits.Inc()
			met.diskHits.Inc()
			return data, true
		}
	}
	met.misses.Inc()
	return nil, false
}

// Put stores data under fp in the memory tier and, when a disk tier is
// attached, on disk. The zero fingerprint is rejected (it carries no
// identity). The caller must not mutate data afterwards. Metrics go to
// the process default registry; use PutCtx inside a per-run scope.
func (c *Cache) Put(fp Fingerprint, data []byte) {
	c.put(fp, data, defaultMeters)
}

// PutCtx is Put attributing its metrics to the registry carried by ctx
// (per-run scoping). The store itself is identical.
func (c *Cache) PutCtx(ctx context.Context, fp Fingerprint, data []byte) {
	c.put(fp, data, metersCtx(ctx))
}

func (c *Cache) put(fp Fingerprint, data []byte, met *meters) {
	if fp.IsZero() {
		return
	}
	met.puts.Inc()
	c.install(fp, data, met)
	c.mu.Lock()
	fsys, dir := c.fs, c.dir
	c.mu.Unlock()
	if dir != "" {
		if size, ok := writeEntry(fsys, dir, fp.String(), data, met); ok {
			c.noteDiskWrite(fp, size, met)
		}
	}
}

func (c *Cache) install(fp Fingerprint, data []byte, met *meters) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[fp]; ok {
		c.lru.MoveToFront(el)
		ent := el.Value.(*cacheEntry)
		c.bytes += int64(len(data)) - int64(len(ent.data))
		ent.data = data
	} else {
		c.entries[fp] = c.lru.PushFront(&cacheEntry{fp: fp, data: data})
		c.bytes += int64(len(data))
	}
	// Evict from the cold end; always keep the most recent entry so a
	// single oversized artifact still caches.
	for (c.lru.Len() > c.maxEntries || c.bytes > c.maxBytes) && c.lru.Len() > 1 {
		el := c.lru.Back()
		ent := el.Value.(*cacheEntry)
		c.lru.Remove(el)
		delete(c.entries, ent.fp)
		c.bytes -= int64(len(ent.data))
		met.evictions.Inc()
	}
}

// diskRetry bounds the disk tier's per-operation retries: transient
// I/O errors get two more tries with jittered backoff, permanent ones
// (missing file, permission) fail immediately. Retries are counted in
// artifact.io_retries.
var diskRetry = iofault.RetryPolicy{Attempts: 3, Base: 2 * time.Millisecond, Jitter: 0.5}

// writeEntry persists one entry, returning its file size. The temp
// file is written and fsynced, renamed into place, and the parent
// directory fsynced — without the syncs, tmp+rename can surface an
// empty or torn entry after power loss. Each step gets bounded
// retries; terminal failures are silent beyond the retry counter: the
// disk tier is an optimization, and a missing entry just means
// recomputation.
func writeEntry(fsys iofault.FS, dir, name string, data []byte, met *meters) (int64, bool) {
	buf := encodeEntry(data)
	path := filepath.Join(dir, name)
	tmp := path + ".tmp"
	retries, err := diskRetry.Do(func() error {
		f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		n, err := f.Write(buf)
		if err == nil && n != len(buf) {
			err = fmt.Errorf("artifact: short write (%d of %d bytes)", n, len(buf))
		}
		if err == nil {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fsys.Remove(tmp)
		}
		return err
	})
	met.ioRetries.Add(int64(retries))
	if err != nil {
		return 0, false
	}
	retries, err = diskRetry.Do(func() error { return fsys.Rename(tmp, path) })
	met.ioRetries.Add(int64(retries))
	if err != nil {
		fsys.Remove(tmp)
		return 0, false
	}
	syncDir(fsys, dir)
	return int64(len(buf)), true
}

// syncDir fsyncs a directory so a just-renamed entry's name is durable
// (best effort — a failure means the entry may vanish after power
// loss, which the read path already tolerates as a miss).
func syncDir(fsys iofault.FS, dir string) {
	d, err := fsys.OpenFile(dir, os.O_RDONLY, 0)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// readEntry loads and verifies one on-disk entry. A missing file is a
// plain miss; transient read errors get bounded retries. A failed
// verification is classified by decodeEntry: torn (truncated relative
// to the declared length — a crashed write) or corrupt (full length,
// wrong bytes) — either way the file is deleted (best effort) and
// reported so the caller can count it and drop its index entry.
func readEntry(fsys iofault.FS, path string, met *meters) (data []byte, ok, corrupt, torn bool) {
	var raw []byte
	retries, err := diskRetry.Do(func() error {
		var rerr error
		raw, rerr = fsys.ReadFile(path)
		return rerr
	})
	met.ioRetries.Add(int64(retries))
	if err != nil {
		return nil, false, false, false
	}
	payload, derr := decodeEntry(raw)
	if derr != nil {
		fsys.Remove(path)
		return nil, false, errors.Is(derr, errEntryCorrupt), errors.Is(derr, errEntryTorn)
	}
	return payload, true, false, false
}

// dirCaches deduplicates Cache instances per absolute directory, so
// every pipeline run pointed at the same cache directory shares one
// memory tier within the process.
var dirCaches sync.Map // absolute dir -> *Cache

// DirCache returns the process-wide Cache backed by dir, creating the
// directory and the instance on first use.
func DirCache(dir string) (*Cache, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	if c, ok := dirCaches.Load(abs); ok {
		return c.(*Cache), nil
	}
	c := NewCache(0, 0)
	if err := c.AttachDir(abs); err != nil {
		return nil, err
	}
	actual, _ := dirCaches.LoadOrStore(abs, c)
	return actual.(*Cache), nil
}
