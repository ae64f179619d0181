package serve

import (
	"net/http"

	"hpm/store"
)

// Health endpoints for orchestrators:
//
//	GET /healthz   liveness — the process answers HTTP
//	GET /readyz    readiness — the store accepts work; body carries the
//	               durability recovery summary (snapshot restored, WAL
//	               records replayed) and the train-failure count, so a
//	               probe can alarm on a fleet whose models are quietly
//	               failing to learn.
//
// readyz answers 503 once the store is closed (shutdown in progress), so
// load balancers drain before the final checkpoint runs — and while the
// store is degraded read-only, so write traffic routes away from a node
// whose disk is refusing WAL commits. healthz stays 200 through a
// degrade: the process is alive and still answering reads, and restarting
// it would not fix the disk.

func handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"ok": true})
}

func handleReadyz(st *store.Store, w http.ResponseWriter, r *http.Request) {
	h := st.Health()
	ready := !h.Closed && !h.Degraded
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]any{"ready": ready, "health": h})
}
