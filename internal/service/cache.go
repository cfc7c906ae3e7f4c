package service

import (
	"container/list"
	"sync"
)

// lruCache is the content-addressed result cache: content key (see
// contentKey) → the exact JSON bytes served for that job. Entries are
// immutable once stored, so hits can hand out the stored slice directly
// and repeated requests are byte-identical by construction.
type lruCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

type cacheEntry struct {
	key string
	val []byte
}

func newLRUCache(capacity int) *lruCache {
	if capacity < 1 {
		capacity = 1
	}
	return &lruCache{cap: capacity, ll: list.New(), items: make(map[string]*list.Element)}
}

// Get returns the cached bytes for key and refreshes its recency.
func (c *lruCache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// Put stores val under key, evicting the least recently used entry when
// the cache is full.
func (c *lruCache) Put(key string, val []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).val = val
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, val: val})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
	}
}

// Len returns the number of cached results.
func (c *lruCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
