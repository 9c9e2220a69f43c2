package checkcache

import (
	"fmt"
	"sync"
	"testing"
)

// keyInShard fabricates distinct keys that all land in one shard, so
// LRU-order assertions are deterministic despite sharding.
func keyInShard(t *testing.T, shard, n int) Key {
	t.Helper()
	for i := 0; ; i++ {
		k := KeyOf("shardkey", fmt.Sprint(shard), fmt.Sprint(n), fmt.Sprint(i))
		if int(k[0]&(numShards-1)) == shard {
			return k
		}
	}
}

func TestKeyOfLengthPrefixing(t *testing.T) {
	if KeyOf("ab", "c") == KeyOf("a", "bc") {
		t.Fatal("length prefixing failed: part boundaries collide")
	}
	if KeyOf("a", "b") != KeyOf("a", "b") {
		t.Fatal("KeyOf not deterministic")
	}
	if KeyOfBytes([]string{"a"}, []byte("b")) != KeyOf("a", "b") {
		t.Fatal("KeyOfBytes disagrees with KeyOf")
	}
}

func TestGetPutRoundTrip(t *testing.T) {
	c := New(0, 0)
	k := KeyOf("v1", "store", "f.py", "body")
	if _, ok := c.Get(k); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(k, []byte("result"))
	v, ok := c.Get(k)
	if !ok || string(v) != "result" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	if c.Len() != 1 || c.Bytes() != 6 {
		t.Errorf("resident %d entries, %d bytes, want 1 and 6", c.Len(), c.Bytes())
	}
}

func TestEntryCapEviction(t *testing.T) {
	// Global cap 16 → one entry per shard. Confine keys to shard 3 so
	// every insert beyond the first must evict the previous one.
	c := New(16, 0)
	k1 := keyInShard(t, 3, 1)
	k2 := keyInShard(t, 3, 2)
	if n := c.Put(k1, []byte("one")); n != 0 {
		t.Errorf("first insert evicted %d", n)
	}
	if n := c.Put(k2, []byte("two")); n != 1 {
		t.Errorf("insert over the entry cap evicted %d, want 1", n)
	}
	if _, ok := c.Get(k1); ok {
		t.Error("LRU entry survived entry-cap eviction")
	}
	if _, ok := c.Get(k2); !ok {
		t.Error("most-recent entry evicted")
	}
	if c.Len() != 1 {
		t.Errorf("resident %d entries, want 1", c.Len())
	}
}

func TestByteCapEviction(t *testing.T) {
	// 160 global bytes → 10 per shard. Three 3-byte values fit; the
	// fourth pushes the shard over and the least-recently-used goes.
	c := New(0, 160)
	ks := make([]Key, 4)
	for i := range ks {
		ks[i] = keyInShard(t, 5, i)
	}
	for i := 0; i < 3; i++ {
		c.Put(ks[i], []byte("xxx"))
	}
	// Touch ks[0] so ks[1] is now least recently used.
	if _, ok := c.Get(ks[0]); !ok {
		t.Fatal("resident entry missed")
	}
	if n := c.Put(ks[3], []byte("xxx")); n != 1 {
		t.Errorf("insert over the byte cap evicted %d, want 1", n)
	}
	if _, ok := c.Get(ks[1]); ok {
		t.Error("LRU entry survived byte-cap eviction")
	}
	for _, i := range []int{0, 2, 3} {
		if _, ok := c.Get(ks[i]); !ok {
			t.Errorf("entry %d evicted, want resident", i)
		}
	}
	if c.Bytes() > 10 {
		t.Errorf("resident %d bytes over a 10-byte shard", c.Bytes())
	}
}

func TestOversizeValueNotCached(t *testing.T) {
	c := New(0, 160) // 10 bytes per shard
	k := KeyOf("big")
	if n := c.Put(k, make([]byte, 11)); n != 0 {
		t.Errorf("refused value evicted %d", n)
	}
	if _, ok := c.Get(k); ok {
		t.Error("value larger than the shard byte cap was cached")
	}
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Errorf("resident %d entries, %d bytes, want none", c.Len(), c.Bytes())
	}
}

func TestPutRefreshSameKey(t *testing.T) {
	c := New(0, 0)
	k := KeyOf("k")
	c.Put(k, []byte("aa"))
	c.Put(k, []byte("bbbb"))
	v, ok := c.Get(k)
	if !ok || string(v) != "bbbb" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	if c.Len() != 1 || c.Bytes() != 4 {
		t.Errorf("resident %d entries, %d bytes, want 1 and 4", c.Len(), c.Bytes())
	}
}

func TestNilCacheIsNoop(t *testing.T) {
	var c *Cache
	if _, ok := c.Get(KeyOf("k")); ok {
		t.Error("nil cache hit")
	}
	if n := c.Put(KeyOf("k"), []byte("v")); n != 0 { // must not panic
		t.Errorf("nil cache evicted %d", n)
	}
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Error("nil cache holds something")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(256, 1<<20)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := KeyOf("c", fmt.Sprint(i%64))
				if v, ok := c.Get(k); ok && len(v) == 0 {
					t.Error("empty cached value")
					return
				}
				c.Put(k, []byte(fmt.Sprintf("val-%d", i%64)))
			}
		}(w)
	}
	wg.Wait()
	if n := c.Len(); n == 0 || n > 64 {
		t.Errorf("entries = %d", n)
	}
}
