package serve

import (
	"context"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hpm/internal/faultinject"
	"hpm/store"
)

// Admission control. Every request passes a guard before its handler
// runs: an optional per-request deadline (threaded as context.Context
// down into the store), a per-class concurrency limit with a small
// bounded wait queue, and shed accounting. Under overload the server
// answers 429 (wait queue full) or 503 (deadline expired while queued)
// with Retry-After — callers get a fast, honest "come back later" instead
// of a connection that queues without bound and times out anyway.
//
// Requests are classed by what they cost the store: reads (predictions,
// fleet queries, stats) outrank writes (observes) outrank control
// work (flush). Under the "priority" policy each class gets a shrinking
// slice of MaxInflight, so a write flood cannot starve reads and a pile of
// flushes cannot starve either.
// The "fair" policy runs every class through one shared limiter.

// Request classes, ordered by priority.
const (
	classRead = iota
	classWrite
	classControl
	numClasses
)

// Limits configures the admission-control middleware. The zero value
// disables limiting and deadlines entirely (every field opt-in), matching
// the pre-admission behavior of Handler.
type Limits struct {
	// MaxInflight caps concurrently executing requests. 0 disables
	// concurrency limiting. Under the priority policy reads get the full
	// cap, writes half, control a quarter (each at least 1).
	MaxInflight int
	// RequestTimeout is the per-request deadline, threaded through the
	// request context into the store. 0 disables it. /subscribe streams
	// are exempt — they are long-lived by design and governed by
	// MaxSubscribers instead.
	RequestTimeout time.Duration
	// ShedPolicy is "priority" (default) or "fair"; see the class rules
	// above.
	ShedPolicy string
	// MaxSubscribers caps concurrent SSE subscribers; when full, the
	// client most behind on its write deadline is evicted first. 0 takes
	// DefaultMaxSubscribers; negative disables the cap.
	MaxSubscribers int
	// FaultHook, when set, is consulted with OpSlowClient at admission,
	// letting chaos tests stall a request while it holds (or waits for) a
	// concurrency slot.
	FaultHook faultinject.Hook
}

// DefaultMaxSubscribers bounds SSE subscribers when Limits leaves it 0.
const DefaultMaxSubscribers = 256

// queueDepthPerSlot sizes each limiter's bounded wait queue relative to
// its concurrency limit: a full queue means every slot has a waiter
// already lined up, so another arrival would only buy latency, not
// throughput — shed it instead.
const queueDepthPerSlot = 1

// server carries the handler set's shared state: the store, the
// per-class limiters, shed accounting, and the SSE subscriber table.
type server struct {
	st   *store.Store
	lim  Limits
	cls  [numClasses]*limiter // nil entries mean unlimited
	shed shedTable
	subs *subscriberTable
}

// limiter is a concurrency gate: a token channel of capacity `limit`
// plus a bounded count of waiters allowed to queue for one.
type limiter struct {
	tokens   chan struct{}
	maxQueue int32
	queued   atomic.Int32
}

func newLimiter(limit int) *limiter {
	l := &limiter{tokens: make(chan struct{}, limit), maxQueue: int32(limit * queueDepthPerSlot)}
	if l.maxQueue < 1 {
		l.maxQueue = 1
	}
	for i := 0; i < limit; i++ {
		l.tokens <- struct{}{}
	}
	return l
}

// acquire takes a token, queuing (bounded) when none is free. It returns
// a release func on success, or a shed reason: "queue_full" when the wait
// queue is at capacity, "deadline" when ctx expired while queued.
func (l *limiter) acquire(ctx context.Context) (release func(), reason string) {
	select {
	case <-l.tokens:
		return func() { l.tokens <- struct{}{} }, ""
	default:
	}
	if l.queued.Add(1) > l.maxQueue {
		l.queued.Add(-1)
		return nil, "queue_full"
	}
	defer l.queued.Add(-1)
	select {
	case <-l.tokens:
		return func() { l.tokens <- struct{}{} }, ""
	case <-ctx.Done():
		return nil, "deadline"
	}
}

// shedTable counts shed responses by {endpoint, reason} for /metrics.
type shedTable struct {
	mu sync.Mutex
	m  map[[2]string]uint64
}

func (t *shedTable) inc(endpoint, reason string) {
	t.mu.Lock()
	if t.m == nil {
		t.m = map[[2]string]uint64{}
	}
	t.m[[2]string{endpoint, reason}]++
	t.mu.Unlock()
}

// shedSample is one {endpoint, reason} count, for metrics rendering.
type shedSample struct {
	endpoint, reason string
	n                uint64
}

// snapshot returns the table's samples sorted by label, so the /metrics
// series order is stable across scrapes.
func (t *shedTable) snapshot() []shedSample {
	t.mu.Lock()
	out := make([]shedSample, 0, len(t.m))
	for k, n := range t.m {
		out = append(out, shedSample{endpoint: k[0], reason: k[1], n: n})
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].endpoint != out[j].endpoint {
			return out[i].endpoint < out[j].endpoint
		}
		return out[i].reason < out[j].reason
	})
	return out
}

func (t *shedTable) total() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var n uint64
	for _, v := range t.m {
		n += v
	}
	return n
}

// newServer builds the shared state and its limiters from lim.
func newServer(st *store.Store, lim Limits) *server {
	s := &server{st: st, lim: lim}
	if lim.MaxSubscribers == 0 {
		lim.MaxSubscribers = DefaultMaxSubscribers
	}
	if lim.MaxSubscribers > 0 {
		s.subs = newSubscriberTable(lim.MaxSubscribers)
	}
	if lim.MaxInflight > 0 {
		if lim.ShedPolicy == "fair" {
			shared := newLimiter(lim.MaxInflight)
			for c := 0; c < numClasses; c++ {
				s.cls[c] = shared
			}
		} else {
			div := []int{1, 2, 4} // read, write, control
			for c := 0; c < numClasses; c++ {
				n := lim.MaxInflight / div[c]
				if n < 1 {
					n = 1
				}
				s.cls[c] = newLimiter(n)
			}
		}
	}
	return s
}

// guard wraps a handler with the admission ladder: slow-client fault
// point, request deadline, concurrency limit. endpoint labels the shed
// counter; class picks the limiter.
func (s *server) guard(endpoint string, class int, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.lim.FaultHook != nil {
			_ = s.lim.FaultHook(faultinject.OpSlowClient)
		}
		if s.lim.RequestTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.lim.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		if lim := s.cls[class]; lim != nil {
			release, reason := lim.acquire(r.Context())
			if release == nil {
				s.shedResponse(w, endpoint, reason)
				return
			}
			defer release()
		}
		h(w, r)
	}
}

// shedResponse answers a shed request: 429 for a full wait queue, 503
// for a deadline that expired while queued, both with Retry-After so
// well-behaved clients back off instead of hammering.
func (s *server) shedResponse(w http.ResponseWriter, endpoint, reason string) {
	s.shed.inc(endpoint, reason)
	status := http.StatusTooManyRequests
	if reason == "deadline" {
		status = http.StatusServiceUnavailable
	}
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
	writeJSON(w, status, errBody("overloaded ("+reason+"), retry later"))
}

// retryAfterSeconds is the Retry-After hint on shed and degraded
// responses: long enough to thin a stampede, short enough that a
// recovered server repopulates quickly.
const retryAfterSeconds = 1
