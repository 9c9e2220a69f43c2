// Package checkcache is the in-memory, content-addressed cache of
// encoded check results behind seldond's POST /v1/check hot path. Where
// internal/fpcache makes repeated *corpus* analysis incremental on
// disk, checkcache makes repeated *requests* nearly free in memory: the
// same body, checked against the same specification generation with the
// same options, costs one analysis and one encode — every later
// identical request is a bounded-map lookup.
//
// Key derivation follows the fpcache recipe: sha256 over length-prefixed
// parts. Callers key on (analyzer version, store fingerprint/generation,
// filename, request options, body), so a reload that actually changes
// the specification shifts every key and the old generation's entries
// simply stop being looked up — invalidation is a natural consequence of
// the keying, never an explicit flush. Dead-generation entries age out
// through the LRU.
//
// The cache is sharded to keep lock hold times short under concurrent
// serving traffic: the first key byte selects one of 16 shards, each an
// independent mutex + hash map + intrusive LRU list. Both bounds —
// entry count and total value bytes — are enforced per shard (the
// global caps are split evenly), so one giant response cannot evict the
// whole working set, and an over-cap insert evicts from the tail of the
// same shard only.
package checkcache

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"
	"sync/atomic"
)

const numShards = 16

// Default caps: entries bound the map, bytes bound the resident encoded
// responses. Both are deliberately modest — the cache targets the
// duplicate-heavy head of the traffic distribution, not the long tail.
const (
	DefaultMaxEntries = 8192
	DefaultMaxBytes   = 64 << 20
)

// Key is the content address of one check: sha256 over the
// length-prefixed key parts.
type Key [sha256.Size]byte

// KeyOfBytes derives a Key from string parts and a last part (typically
// the request body) held as a byte slice, which spares the hot path a
// string conversion. Each part is length-prefixed before hashing, so part
// boundaries are unambiguous ("ab","c" never collides with "a","bc").
func KeyOfBytes(parts []string, last []byte) Key {
	h := sha256.New()
	var lenBuf [8]byte
	for _, p := range parts {
		binary.BigEndian.PutUint64(lenBuf[:], uint64(len(p)))
		h.Write(lenBuf[:])
		h.Write([]byte(p))
	}
	binary.BigEndian.PutUint64(lenBuf[:], uint64(len(last)))
	h.Write(lenBuf[:])
	h.Write(last)
	var k Key
	h.Sum(k[:0])
	return k
}

// entry is one cached value, threaded on its shard's LRU list.
type entry struct {
	key        Key
	val        []byte
	prev, next *entry // LRU list; head = most recent
}

type shard struct {
	mu    sync.Mutex
	m     map[Key]*entry
	head  *entry // most recently used
	tail  *entry // least recently used
	bytes int64
}

// Cache is a bounded, sharded LRU of encoded check results. All methods
// are safe for concurrent use; a nil *Cache is a valid always-miss
// no-op, so callers serving with the cache disabled need no guards.
//
// The cache keeps its residency (Len, Bytes) and no books: the caller
// counts its own lookups, and Put says how many entries it evicted.
type Cache struct {
	shards          [numShards]shard
	maxShardEntries int
	maxShardBytes   int64

	entries, bytes atomic.Int64
}

// New builds a cache bounded by maxEntries resident values and maxBytes
// total value bytes. Non-positive caps select the defaults; the caps
// are split evenly across the shards (rounded up), so the effective
// global bound is within one shard's rounding of the requested one.
func New(maxEntries int, maxBytes int64) *Cache {
	if maxEntries <= 0 {
		maxEntries = DefaultMaxEntries
	}
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	c := &Cache{
		maxShardEntries: (maxEntries + numShards - 1) / numShards,
		maxShardBytes:   (maxBytes + numShards - 1) / numShards,
	}
	for i := range c.shards {
		c.shards[i].m = make(map[Key]*entry)
	}
	return c
}

func (c *Cache) shardOf(k Key) *shard { return &c.shards[k[0]&(numShards-1)] }

// Get returns the cached value for k, promoting the entry to
// most-recently-used. The returned slice is the cache's own backing
// array: callers must treat it as immutable.
func (c *Cache) Get(k Key) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	sh := c.shardOf(k)
	sh.mu.Lock()
	e, ok := sh.m[k]
	if !ok {
		sh.mu.Unlock()
		return nil, false
	}
	sh.moveToFront(e)
	v := e.val
	sh.mu.Unlock()
	return v, true
}

// Put inserts (or refreshes) the value for k and evicts
// least-recently-used entries until the shard is back under both caps.
// The cache keeps a reference to val: callers must not mutate it after
// the call. A value that alone exceeds the per-shard byte cap is not
// cached. Put returns how many entries it evicted. Nil-safe no-op.
func (c *Cache) Put(k Key, val []byte) (evicted int) {
	if c == nil || int64(len(val)) > c.maxShardBytes {
		return 0
	}
	sh := c.shardOf(k)
	sh.mu.Lock()
	if e, ok := sh.m[k]; ok {
		// Same content address ⇒ same value bytes in practice, but refresh
		// anyway: last writer wins, accounting follows.
		sh.bytes += int64(len(val)) - int64(len(e.val))
		c.bytes.Add(int64(len(val)) - int64(len(e.val)))
		e.val = val
		sh.moveToFront(e)
		sh.mu.Unlock()
		return 0
	}
	e := &entry{key: k, val: val}
	sh.m[k] = e
	sh.pushFront(e)
	sh.bytes += int64(len(val))
	c.entries.Add(1)
	c.bytes.Add(int64(len(val)))
	for (len(sh.m) > c.maxShardEntries || sh.bytes > c.maxShardBytes) && sh.tail != nil && sh.tail != e {
		t := sh.tail
		sh.unlink(t)
		delete(sh.m, t.key)
		sh.bytes -= int64(len(t.val))
		c.entries.Add(-1)
		c.bytes.Add(-int64(len(t.val)))
		evicted++
	}
	sh.mu.Unlock()
	return evicted
}

// Len reports the resident entry count. Nil-safe.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	return int(c.entries.Load())
}

// Bytes reports the resident value bytes. Nil-safe.
func (c *Cache) Bytes() int64 {
	if c == nil {
		return 0
	}
	return c.bytes.Load()
}

// --- intrusive LRU list (shard.mu held) ---

func (sh *shard) pushFront(e *entry) {
	e.prev = nil
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

func (sh *shard) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (sh *shard) moveToFront(e *entry) {
	if sh.head == e {
		return
	}
	sh.unlink(e)
	sh.pushFront(e)
}
