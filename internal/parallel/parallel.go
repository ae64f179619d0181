// Package parallel provides the bounded fan-out primitive the store
// spreads per-shard and per-object work with (segment write and load, WAL
// replay, a fleet-index bucket's build). Call sites compute into per-index
// slots and merge them in index order, so results do not depend on the
// worker count.
package parallel

import "sync"

// For runs fn(i) for every i in [0, n), fanning the indices across at most
// workers goroutines. With workers <= 1 (or n <= 1) it degenerates to a
// plain loop on the calling goroutine — no goroutines, no channels — so the
// serial path stays allocation-free and trivially deterministic.
//
// Indices are handed out in blocks via an atomic-free striding scheme:
// worker w processes i = w, w+workers, w+2*workers, ... Striding keeps
// adjacent indices on different workers, which balances work whose cost
// varies smoothly with the index.
//
// fn must not panic across goroutines silently: panics are re-raised on the
// caller after all workers finish.
func For(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	var panicMu sync.Mutex
	var panicked any
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicked == nil {
						panicked = r
					}
					panicMu.Unlock()
				}
			}()
			for i := w; i < n; i += workers {
				fn(i)
			}
		}(w)
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}
