package pipeline

import (
	"container/list"
	"sync"

	"llm4em/internal/llm"
	"llm4em/internal/telemetry"
)

// promptCache is an LRU response cache with single-flight semantics:
// concurrent requests for the same key coalesce onto one client call,
// so a duplicated prompt never issues an extra model request — not
// even when both copies arrive at the same instant on different
// workers. Errors are not cached; the failed key is removed so a
// later request can retry it.
type promptCache struct {
	capacity int
	// hits counts completed lookups answered from the cache — waited-on
	// in-flight entries and peeks alike. It is the engine's
	// telemetry counter when one is wired, so Stats and the exposition
	// read the same count.
	hits *telemetry.Counter

	mu      sync.Mutex
	entries map[string]*cacheEntry
	order   *list.List // front = most recently used
}

type cacheEntry struct {
	key  string
	elem *list.Element
	// ready is closed once resp/err are filled in.
	ready chan struct{}
	resp  llm.Response
	err   error
}

func newPromptCache(capacity int, hits *telemetry.Counter) *promptCache {
	return &promptCache{
		capacity: capacity,
		hits:     hits,
		entries:  map[string]*cacheEntry{},
		order:    list.New(),
	}
}

// do returns the cached response for key, waiting on an in-flight
// computation if one exists, or computes it with fn. The boolean
// reports whether the response was shared rather than freshly
// computed by this call.
func (c *promptCache) do(key string, fn func() (llm.Response, error)) (llm.Response, bool, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.order.MoveToFront(e.elem)
		c.mu.Unlock()
		<-e.ready
		if e.err != nil {
			return llm.Response{}, false, e.err
		}
		c.hits.Inc()
		return e.resp, true, nil
	}
	e := &cacheEntry{key: key, ready: make(chan struct{})}
	e.elem = c.order.PushFront(e)
	c.entries[key] = e
	c.evictLocked()
	c.mu.Unlock()

	e.resp, e.err = fn()
	close(e.ready)
	if e.err != nil {
		c.remove(e)
		return llm.Response{}, false, e.err
	}
	return e.resp, false, nil
}

// evictLocked drops least-recently-used completed entries until the
// cache is within capacity. In-flight entries are skipped: evicting
// them would let an identical concurrent prompt slip past the
// single-flight guarantee and issue a duplicate model request.
func (c *promptCache) evictLocked() {
	for elem := c.order.Back(); elem != nil && c.order.Len() > c.capacity; {
		prev := elem.Prev()
		e := elem.Value.(*cacheEntry)
		done := true
		select {
		case <-e.ready:
		default:
			done = false
		}
		if done {
			c.order.Remove(elem)
			delete(c.entries, e.key)
		}
		elem = prev
	}
}

// peek returns the cached response for key without waiting: only
// completed successful entries report ok. In-flight computations are
// not joined — callers that want to wait use do.
func (c *promptCache) peek(key string) (llm.Response, bool) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		c.mu.Unlock()
		return llm.Response{}, false
	}
	select {
	case <-e.ready:
	default:
		c.mu.Unlock()
		return llm.Response{}, false
	}
	if e.err != nil {
		c.mu.Unlock()
		return llm.Response{}, false
	}
	c.order.MoveToFront(e.elem)
	c.mu.Unlock()
	c.hits.Inc()
	return e.resp, true
}

// seed installs a completed response for key as if a client call had
// produced it. Existing entries — completed or in-flight — are left
// untouched, so seeding never races a concurrent do on the same key.
func (c *promptCache) seed(key string, resp llm.Response) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		return
	}
	e := &cacheEntry{key: key, ready: make(chan struct{}), resp: resp}
	close(e.ready)
	e.elem = c.order.PushFront(e)
	c.entries[key] = e
	c.evictLocked()
}

// remove drops an entry (used for failed computations so the key can
// be retried).
func (c *promptCache) remove(e *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, ok := c.entries[e.key]; ok && cur == e {
		c.order.Remove(e.elem)
		delete(c.entries, e.key)
	}
}

// len returns the number of resident entries.
func (c *promptCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
