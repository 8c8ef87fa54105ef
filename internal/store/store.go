// Package store is the content-addressed on-disk artifact store under the
// flow's caches: the persistence tier that lets a placement annealed (or
// a group evaluated) by one process be reused by every later process.
//
// An entry is addressed by the content hash of its *inputs* (the cache
// key built by internal/codec) and holds the encoded artifact, prefixed
// by a checksum of the payload. The contract mirrors flow.Cache's: a
// store only changes how often work is done, never its results — so every
// failure mode degrades to a recompute:
//
//   - A missing entry is a miss (ErrNotFound).
//   - A truncated or bit-flipped entry fails its checksum, is deleted,
//     and reports ErrCorrupt — the caller recomputes and the next Put
//     heals the entry. Corruption can never poison the cache because the
//     payload is verified before any decoder sees it.
//   - Writers are crash- and race-safe: an entry is written to a private
//     temp file and atomically renamed into place, so readers observe
//     either nothing or a complete entry, and concurrent writers of one
//     key (which, by determinism, carry identical bytes) simply race to
//     publish the same content.
//
// The store is size-capped: when the configured budget is exceeded after
// a write, the least-recently-used entries (read hits refresh an entry's
// timestamp) are evicted until the total is back under the cap.
package store

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/codec"
)

// ErrNotFound reports a key with no stored entry.
var ErrNotFound = errors.New("store: artifact not found")

// ErrCorrupt reports an entry whose payload failed verification; the
// entry has been deleted and the caller should recompute.
var ErrCorrupt = errors.New("store: artifact corrupt")

// magic opens every entry file; a different prefix means the file is not
// (or is no longer) a store entry of this format.
const magic = "MMSTOR1\n"

// Stats counts store traffic. Counters only ever increase; read them via
// Store.Stats for a consistent-enough snapshot (individual counters are
// atomic, the set is not). Each field's tags define its /metrics family
// (see obs.RegisterSnapshot).
type Stats struct {
	// Local-tier Get outcomes.
	Hits    uint64 `metric:"mm_store_hits_total" help:"Persistent store reads that hit."`
	Misses  uint64 `metric:"mm_store_misses_total" help:"Persistent store reads that missed."`
	Corrupt uint64 `metric:"mm_store_corrupt_total" help:"Persistent store entries that failed verification."`
	Puts    uint64 `metric:"mm_store_puts_total" help:"Artifacts written to the persistent store."`
	// BytesRead counts payload bytes returned by hits, BytesWritten
	// payload bytes stored by puts.
	BytesRead    uint64 `metric:"mm_store_bytes_read_total" help:"Bytes read from the persistent store."`
	BytesWritten uint64 `metric:"mm_store_bytes_written_total" help:"Bytes written to the persistent store."`
	// Evictions counts entries removed by the size cap.
	Evictions uint64 `metric:"mm_store_evictions_total" help:"Entries evicted from the persistent store."`
	// Remote-tier traffic (all zero without an attached remote).
	// RemoteHits are local misses served by the remote (and written
	// through locally); RemoteMisses are keys absent from both tiers;
	// RemotePuts are artifacts pushed to the remote; RemoteErrors count
	// every fail-open event — unreachable remote, transfer failure, or a
	// blob that failed its checksum.
	RemoteHits   uint64 `metric:"mm_store_remote_hits_total" help:"Local store misses served by the remote tier."`
	RemoteMisses uint64 `metric:"mm_store_remote_misses_total" help:"Keys absent from both store tiers."`
	RemotePuts   uint64 `metric:"mm_store_remote_puts_total" help:"Artifacts pushed to the remote store tier."`
	RemoteErrors uint64 `metric:"mm_store_remote_errors_total" help:"Remote store failures handled fail-open (unreachable, transfer or checksum)."`
}

// Store is a content-addressed artifact store rooted at one directory.
// All methods are safe for concurrent use, also across processes sharing
// the directory.
type Store struct {
	root     string
	maxBytes int64

	mu       sync.Mutex // guards curBytes and eviction
	curBytes int64

	// remote, when attached, is the shared fleet tier consulted on local
	// misses and pushed to on every Put. fetchMu/fetches single-flight
	// concurrent remote misses of one key so a thundering herd of workers
	// warming the same artifact costs one transfer, not N.
	remote  *Remote
	fetchMu sync.Mutex
	fetches map[codec.Hash]*remoteFetch

	hits, misses, corrupt, puts atomic.Uint64
	bytesRead, bytesWritten     atomic.Uint64
	evictions                   atomic.Uint64

	remoteHits, remoteMisses atomic.Uint64
	remotePuts, remoteErrors atomic.Uint64
}

// staleTempAge is how old an unpublished temp file must be before Open
// treats it as the debris of a crashed writer. Young temp files may
// belong to a live writer in another process and are left alone — their
// rename still wins either way.
const staleTempAge = 15 * time.Minute

// Open creates (if needed) and opens a store rooted at dir. maxBytes caps
// the total size of stored entries; 0 means uncapped.
func Open(dir string, maxBytes int64) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{root: dir, maxBytes: maxBytes}
	s.sweepStaleTemps()
	s.curBytes = s.diskUsage()
	return s, nil
}

// sweepStaleTemps deletes temp files abandoned by crashed or killed
// writers. They are invisible to Get/evict (dot-prefixed), so without
// this sweep they would accumulate outside the size cap forever.
func (s *Store) sweepStaleTemps() {
	cutoff := time.Now().Add(-staleTempAge)
	_ = filepath.WalkDir(s.root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasPrefix(filepath.Base(path), ".tmp-") {
			return nil
		}
		if fi, err := d.Info(); err == nil && fi.ModTime().Before(cutoff) {
			_ = os.Remove(path)
		}
		return nil
	})
}

// Root returns the store's root directory.
func (s *Store) Root() string { return s.root }

// AttachRemote adds a shared remote tier: local Get misses fall through
// to it (verified and written through locally), and every Put is pushed
// to it so other workers find the artifact warm. Attach before serving
// traffic; not safe to call concurrently with Get/Put.
func (s *Store) AttachRemote(r *Remote) {
	s.remote = r
	s.fetches = map[codec.Hash]*remoteFetch{}
}

// Remote returns the attached remote tier, or nil.
func (s *Store) Remote() *Remote { return s.remote }

// RemoteHealthy reports whether the remote tier is reachable; stores
// without a remote are trivially healthy. Readiness probes call this so a
// dispatcher can eject a worker whose shared tier is gone.
func (s *Store) RemoteHealthy() bool {
	if s == nil || s.remote == nil {
		return true
	}
	return s.remote.Healthy()
}

// Stats returns a snapshot of the traffic counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:         s.hits.Load(),
		Misses:       s.misses.Load(),
		Corrupt:      s.corrupt.Load(),
		Puts:         s.puts.Load(),
		BytesRead:    s.bytesRead.Load(),
		BytesWritten: s.bytesWritten.Load(),
		Evictions:    s.evictions.Load(),
		RemoteHits:   s.remoteHits.Load(),
		RemoteMisses: s.remoteMisses.Load(),
		RemotePuts:   s.remotePuts.Load(),
		RemoteErrors: s.remoteErrors.Load(),
	}
}

// Path returns the entry path for a key: entries shard into 256
// hash-prefix directories so no single directory grows unboundedly.
func (s *Store) Path(key codec.Hash) string {
	hex := key.Hex()
	return filepath.Join(s.root, hex[:2], hex[2:])
}

// Get returns the payload stored under key, consulting the local tier
// first and then — when one is attached — the shared remote tier, with
// remote hits verified and written through locally. It reports
// ErrNotFound for entries absent from every tier and ErrCorrupt (after
// deleting the local entry) for entries that fail verification; every
// error, including a remote that is down or serving garbage, means
// "recompute" — a worker whose shared tier fails answers from local
// state plus fresh work, never with an error of its own.
func (s *Store) Get(key codec.Hash) ([]byte, error) {
	payload, err := s.getLocal(key)
	if err == nil || s.remote == nil {
		return payload, err
	}
	return s.fetchRemote(key, err)
}

// getLocal is the local-tier read: the whole Get of a remote-less store.
func (s *Store) getLocal(key codec.Hash) ([]byte, error) {
	path := s.Path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		s.misses.Add(1)
		if errors.Is(err, fs.ErrNotExist) {
			return nil, ErrNotFound
		}
		return nil, fmt.Errorf("store: read %s: %w", path, err)
	}
	payload, ok := verify(data)
	if !ok {
		s.corrupt.Add(1)
		s.discard(path, int64(len(data)))
		return nil, ErrCorrupt
	}
	s.hits.Add(1)
	s.bytesRead.Add(uint64(len(payload)))
	// Refresh the entry's timestamp so the size-capped eviction below
	// approximates LRU rather than FIFO. Best effort: a failure (e.g. a
	// concurrent eviction) costs nothing but eviction precision.
	now := time.Now()
	_ = os.Chtimes(path, now, now)
	return payload, nil
}

// remoteFetch is one in-flight remote miss; concurrent requesters of the
// same key block on done and share the outcome.
type remoteFetch struct {
	done chan struct{}
	data []byte
	err  error
}

// fetchRemote serves a local miss from the remote tier, single-flighted
// per key. localErr is what the local tier reported; it is also what the
// caller sees whenever the remote cannot help (fail-open).
func (s *Store) fetchRemote(key codec.Hash, localErr error) ([]byte, error) {
	s.fetchMu.Lock()
	if f, ok := s.fetches[key]; ok {
		s.fetchMu.Unlock()
		<-f.done
		return f.data, f.err
	}
	f := &remoteFetch{done: make(chan struct{})}
	s.fetches[key] = f
	s.fetchMu.Unlock()

	f.data, f.err = s.fetchRemoteOnce(key, localErr)

	s.fetchMu.Lock()
	delete(s.fetches, key)
	s.fetchMu.Unlock()
	close(f.done)
	return f.data, f.err
}

// fetchRemoteOnce performs the actual remote read and local write-through.
func (s *Store) fetchRemoteOnce(key codec.Hash, localErr error) ([]byte, error) {
	payload, err := s.remote.Get(key)
	switch {
	case err == nil:
		s.remoteHits.Add(1)
		// Write through: the next Get of this key is a local hit. Best
		// effort — a failed publish only costs a refetch.
		_ = s.putLocal(key, payload)
		return payload, nil
	case errors.Is(err, ErrNotFound):
		s.remoteMisses.Add(1)
		return nil, localErr
	case errors.Is(err, ErrCorrupt):
		// The remote served bytes that failed their checksum. Recompute;
		// the resulting Put re-pushes a good copy over the bad entry.
		s.remoteErrors.Add(1)
		return nil, ErrCorrupt
	default:
		// Transport failure: fail open to the local outcome (a miss), so
		// a dead remote degrades to recompute, never to request failure.
		s.remoteErrors.Add(1)
		return nil, localErr
	}
}

// Put stores payload under key in the local tier, atomically replacing
// any existing entry and enforcing the size cap, then pushes it to the
// remote tier when one is attached. A failed push is counted and
// swallowed: the local tier holds the artifact, and the next worker to
// compute this key re-pushes.
func (s *Store) Put(key codec.Hash, payload []byte) error {
	if err := s.putLocal(key, payload); err != nil {
		return err
	}
	if s.remote != nil {
		if err := s.remote.Put(key, payload); err != nil {
			s.remoteErrors.Add(1)
		} else {
			s.remotePuts.Add(1)
		}
	}
	return nil
}

// putLocal writes the local tier's entry.
func (s *Store) putLocal(key codec.Hash, payload []byte) error {
	path := s.Path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	sum := sha256.Sum256(payload)
	// Write to a private temp file in the destination directory (same
	// filesystem, so the rename is atomic) and publish with one rename.
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	_, werr := tmp.Write([]byte(magic))
	if werr == nil {
		_, werr = tmp.Write(sum[:])
	}
	if werr == nil {
		_, werr = tmp.Write(payload)
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("store: write %s: %w", path, werr)
	}
	newSize := int64(len(magic) + sha256.Size + len(payload))
	var oldSize int64
	if fi, err := os.Stat(path); err == nil {
		oldSize = fi.Size()
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("store: publish %s: %w", path, err)
	}
	s.puts.Add(1)
	s.bytesWritten.Add(uint64(len(payload)))
	s.mu.Lock()
	s.curBytes += newSize - oldSize
	s.mu.Unlock()
	s.evict()
	return nil
}

// verify splits an entry file into its payload, checking the magic and
// the payload checksum.
func verify(data []byte) ([]byte, bool) {
	header := len(magic) + sha256.Size
	if len(data) < header || string(data[:len(magic)]) != magic {
		return nil, false
	}
	payload := data[header:]
	sum := sha256.Sum256(payload)
	for i, b := range data[len(magic):header] {
		if sum[i] != b {
			return nil, false
		}
	}
	return payload, true
}

// discard removes a corrupt entry and adjusts the size accounting.
func (s *Store) discard(path string, size int64) {
	if err := os.Remove(path); err == nil {
		s.mu.Lock()
		s.curBytes -= size
		s.mu.Unlock()
	}
}

// entry is one stored file during an eviction scan.
type entry struct {
	path  string
	size  int64
	mtime time.Time
}

// evict removes least-recently-used entries until the store is within its
// cap. The scan re-derives the true usage, which also resynchronises the
// in-memory accounting with any concurrent external writers.
func (s *Store) evict() {
	if s.maxBytes <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.curBytes <= s.maxBytes {
		return
	}
	var entries []entry
	var total int64
	s.walk(func(path string, fi fs.FileInfo) {
		entries = append(entries, entry{path: path, size: fi.Size(), mtime: fi.ModTime()})
		total += fi.Size()
	})
	sort.Slice(entries, func(i, j int) bool { return entries[i].mtime.Before(entries[j].mtime) })
	for _, e := range entries {
		if total <= s.maxBytes {
			break
		}
		if err := os.Remove(e.path); err == nil {
			total -= e.size
			s.evictions.Add(1)
		}
	}
	s.curBytes = total
}

// diskUsage sums the sizes of all stored entries.
func (s *Store) diskUsage() int64 {
	var total int64
	s.walk(func(_ string, fi fs.FileInfo) { total += fi.Size() })
	return total
}

// walk visits every entry file (skipping in-flight temp files).
func (s *Store) walk(fn func(path string, fi fs.FileInfo)) {
	_ = filepath.WalkDir(s.root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Base(path)[0] == '.' {
			return nil
		}
		if fi, err := d.Info(); err == nil {
			fn(path, fi)
		}
		return nil
	})
}
