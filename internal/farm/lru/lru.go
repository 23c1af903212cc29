// Package lru is a small, dependency-free, mutex-guarded LRU cache that
// bounds the farm's result cache.
package lru

import (
	"container/list"
	"sync"
)

// Cache is a bounded least-recently-used cache. A nil *Cache is valid and
// caches nothing, so callers can disable caching by passing nil.
type Cache[V any] struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used; values are *entry[V]
	items map[string]*list.Element
	hits  uint64
	miss  uint64
	evict uint64
}

type entry[V any] struct {
	key string
	val V
}

// New builds a cache holding up to capacity entries; capacity <= 0 returns
// nil (a valid, inert cache).
func New[V any](capacity int) *Cache[V] {
	if capacity <= 0 {
		return nil
	}
	return &Cache[V]{
		cap:   capacity,
		order: list.New(),
		items: make(map[string]*list.Element, capacity),
	}
}

// Get returns the cached value for key, marking it most recently used.
func (c *Cache[V]) Get(key string) (v V, ok bool) {
	if c == nil {
		return v, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.miss++
		return v, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*entry[V]).val, true
}

// Add inserts or refreshes key, evicting the least recently used entry
// when over capacity.
func (c *Cache[V]) Add(key string, v V) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*entry[V]).val = v
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&entry[V]{key: key, val: v})
	for c.order.Len() > c.cap {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.items, last.Value.(*entry[V]).key)
		c.evict++
	}
}

// Len returns the number of cached entries.
func (c *Cache[V]) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Cap returns the capacity (0 for a nil cache).
func (c *Cache[V]) Cap() int {
	if c == nil {
		return 0
	}
	return c.cap
}

// Clear drops every entry, keeping capacity and counters.
func (c *Cache[V]) Clear() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.order.Init()
	c.items = make(map[string]*list.Element, c.cap)
}

// Stats returns cumulative hit/miss/eviction counts.
func (c *Cache[V]) Stats() (hits, misses, evictions uint64) {
	if c == nil {
		return 0, 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.miss, c.evict
}
