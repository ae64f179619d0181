package serve

import (
	"bufio"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"hpm"
	"hpm/internal/faultinject"
	"hpm/internal/spatial"
	"hpm/store"
)

// durableServer spins up the HTTP layer over a durable store with the
// given admission limits, for tests that need WAL fault points.
func durableServer(t *testing.T, opts store.Options, lim Limits) (*httptest.Server, *store.Store) {
	t.Helper()
	if opts.Config.Period == 0 {
		opts.Config.Period = period
	}
	if opts.MinTrainPeriods == 0 {
		opts.MinTrainPeriods = 3
	}
	opts.WALNoSync = true
	st, err := store.Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(st, lim))
	t.Cleanup(srv.Close)
	return srv, st
}

// postObserve sends one single-point observe and returns the response
// status plus the Retry-After header (empty when absent).
func postObserve(t *testing.T, base, id string) (status int, retryAfter string) {
	t.Helper()
	resp, err := http.Post(base+"/objects/"+id+"/observe", "application/json",
		strings.NewReader(`{"points": [[1, 2]]}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("Retry-After")
}

// metricsBody scrapes /metrics as text.
func metricsBody(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestAdmissionShedsWritesNotReads floods the write class past its
// concurrency slice while the WAL is slow: the overflow is shed fast with
// 429 + Retry-After instead of queueing without bound, and reads keep
// their own lane the whole time.
func TestAdmissionShedsWritesNotReads(t *testing.T) {
	srv, st := durableServer(t, store.Options{}, Limits{MaxInflight: 2})
	// Priority policy: writes get MaxInflight/2 = 1 slot, 1 queue seat.
	st.SetFaultHook(faultinject.DelayN(faultinject.OpWALAppend, -1, 500*time.Millisecond))

	const writers = 6
	statuses := make([]int, writers)
	retries := make([]string, writers)
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i], retries[i] = postObserve(t, srv.URL, "bus-1")
		}(i)
	}

	// While the write lane is saturated, reads still answer immediately.
	time.Sleep(50 * time.Millisecond)
	start := time.Now()
	getJSON(t, srv.URL+"/objects", http.StatusOK)
	if d := time.Since(start); d > 400*time.Millisecond {
		t.Errorf("read stalled %v behind the write flood", d)
	}
	wg.Wait()

	oks, sheds := 0, 0
	for i, s := range statuses {
		switch s {
		case http.StatusOK:
			oks++
		case http.StatusTooManyRequests:
			sheds++
			if retries[i] != "1" {
				t.Errorf("shed response %d missing Retry-After: %q", i, retries[i])
			}
		default:
			t.Errorf("observe %d: unexpected status %d", i, s)
		}
	}
	// One slot + one queue seat: at most two writes can ever succeed.
	if oks > 2 {
		t.Errorf("%d writes succeeded through a 1-slot/1-seat lane", oks)
	}
	if sheds < 3 {
		t.Errorf("only %d of %d flooding writes were shed", sheds, writers)
	}
	if m := metricsBody(t, srv.URL); !strings.Contains(m, `hpm_shed_total{endpoint="observe",reason="queue_full"}`) {
		t.Error("shed counter series missing from /metrics")
	}
}

// TestAdmissionDeadlineWhileQueued: a request whose deadline expires while
// waiting for a slot is answered 503 + Retry-After, not left hanging.
func TestAdmissionDeadlineWhileQueued(t *testing.T) {
	srv, st := durableServer(t, store.Options{}, Limits{
		MaxInflight:    2, // write slice = 1
		RequestTimeout: 100 * time.Millisecond,
	})
	st.SetFaultHook(faultinject.DelayN(faultinject.OpWALAppend, -1, 500*time.Millisecond))

	results := make([]int, 2)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, retry := postObserve(t, srv.URL, "bus-1")
			results[i] = status
			if status == http.StatusServiceUnavailable && retry != "1" {
				t.Errorf("deadline shed missing Retry-After: %q", retry)
			}
		}(i)
	}
	wg.Wait()
	// One holds the slot through the slow WAL and succeeds; the other's
	// 100ms deadline expires long before the 500ms slot frees up.
	got := map[int]int{}
	for _, s := range results {
		got[s]++
	}
	if got[http.StatusOK] != 1 || got[http.StatusServiceUnavailable] != 1 {
		t.Errorf("statuses = %v, want one 200 and one 503", results)
	}
}

// TestDegradedServeReadOnly is the HTTP-level degradation smoke: a full
// disk flips writes to 503 + Retry-After while fleet queries, health and
// metrics keep answering; healing the disk recovers automatically.
func TestDegradedServeReadOnly(t *testing.T) {
	srv, st := durableServer(t, store.Options{
		FleetIndex:    &spatial.Config{CellSize: 50},
		DegradeAfter:  1,
		ProbeInterval: 5 * time.Millisecond,
	}, Limits{})
	feedDataset(t, st, "bike-1", 1, 5)

	st.SetFaultHook(faultinject.FailN(faultinject.OpDiskFull, 1<<30, syscall.ENOSPC))
	status, retry := postObserve(t, srv.URL, "bike-1")
	if status != http.StatusServiceUnavailable || retry != "1" {
		t.Fatalf("observe on full disk: status %d, Retry-After %q; want 503 + 1", status, retry)
	}
	if !st.Health().Degraded {
		t.Fatal("store not degraded after ENOSPC")
	}

	// Reads ride through: fleet queries, predictions, stats.
	body := getJSON(t, srv.URL+"/query/range?minx=-100000&miny=-100000&maxx=100000&maxy=100000&horizon=10", http.StatusOK)
	if results, ok := body["results"].([]any); !ok || len(results) != 1 {
		t.Errorf("degraded range query results = %v", body["results"])
	}
	getJSON(t, srv.URL+"/objects/bike-1/stats", http.StatusOK)

	// Orchestrator view: not ready (route writes away), but alive
	// (restarting the process would not fix the disk).
	getJSON(t, srv.URL+"/readyz", http.StatusServiceUnavailable)
	getJSON(t, srv.URL+"/healthz", http.StatusOK)
	m := metricsBody(t, srv.URL)
	if !strings.Contains(m, "hpm_degraded 1") {
		t.Error("hpm_degraded gauge not raised")
	}
	// A store opened from a directory says where its start-up went.
	for _, phase := range []string{"load", "replay", "recover"} {
		if !strings.Contains(m, `hpm_open_seconds{phase="`+phase+`"}`) {
			t.Errorf("/metrics has no hpm_open_seconds for phase %q", phase)
		}
	}

	// Heal the disk; the probe recovers the store without intervention.
	st.SetFaultHook(nil)
	deadline := time.Now().Add(10 * time.Second)
	for st.Health().Degraded {
		if time.Now().After(deadline) {
			t.Fatalf("store never recovered; health %+v", st.Health())
		}
		time.Sleep(2 * time.Millisecond)
	}
	getJSON(t, srv.URL+"/readyz", http.StatusOK)
	if status, _ := postObserve(t, srv.URL, "bike-1"); status != http.StatusOK {
		t.Errorf("observe after recovery: status %d", status)
	}
	if m := metricsBody(t, srv.URL); !strings.Contains(m, "hpm_recoveries_total 1") {
		t.Error("hpm_recoveries_total not incremented")
	}
}

// TestSubscriberCapSheds caps live SSE streams: healthy subscribers hold
// their slots, the overflow client is shed with 429, and a slot freed by a
// disconnect is reusable.
func TestSubscriberCapSheds(t *testing.T) {
	st, err := store.New(store.Options{
		Config:          hpm.Config{Period: period},
		MinTrainPeriods: 3,
		FleetIndex:      &spatial.Config{CellSize: 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(st, Limits{MaxSubscribers: 2}))
	t.Cleanup(srv.Close)
	feedDataset(t, st, "bike-1", 1, 5)

	subURL := srv.URL + "/subscribe?minx=-100000&miny=-100000&maxx=100000&maxy=100000&horizon=10&interval_ms=25"
	open := func() *http.Response {
		t.Helper()
		resp, err := http.Get(subURL)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	s1, s2 := open(), open()
	defer s1.Body.Close()
	defer s2.Body.Close()
	if s1.StatusCode != http.StatusOK || s2.StatusCode != http.StatusOK {
		t.Fatalf("streams: %d, %d", s1.StatusCode, s2.StatusCode)
	}
	// Both streams are live and keeping up (events flowing), so the third
	// client is the one shed.
	sseEvent(t, bufio.NewReader(s1.Body))
	sseEvent(t, bufio.NewReader(s2.Body))
	s3 := open()
	io.Copy(io.Discard, s3.Body)
	s3.Body.Close()
	if s3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third subscriber: status %d, want 429", s3.StatusCode)
	}
	if s3.Header.Get("Retry-After") != "1" {
		t.Errorf("shed subscriber missing Retry-After: %q", s3.Header.Get("Retry-After"))
	}
	if m := metricsBody(t, srv.URL); !strings.Contains(m, "hpm_subscribers 2") {
		t.Error("hpm_subscribers gauge != 2 with two live streams")
	}

	// Disconnect one; within an interval the slot frees and a newcomer fits.
	s1.Body.Close()
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(metricsBody(t, srv.URL), "hpm_subscribers 1") {
		if time.Now().After(deadline) {
			t.Fatal("subscriber slot never freed after disconnect")
		}
		time.Sleep(5 * time.Millisecond)
	}
	s4 := open()
	defer s4.Body.Close()
	if s4.StatusCode != http.StatusOK {
		t.Errorf("subscriber after freed slot: status %d", s4.StatusCode)
	}
}

// TestSubscriberTableEviction unit-tests the eviction policy: a full table
// evicts the subscriber most behind on its write deadline, and sheds the
// newcomer only when every stream is keeping up.
func TestSubscriberTableEviction(t *testing.T) {
	tbl := newSubscriberTable(2)
	ctx1, cancel1 := context.WithCancel(context.Background())
	h1, ok := tbl.add(cancel1, time.Now().Add(-time.Minute)) // overdue
	if !ok {
		t.Fatal("first add refused")
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	if _, ok := tbl.add(cancel2, time.Now().Add(-time.Hour)); !ok { // most overdue
		t.Fatal("second add refused")
	}

	// Full table, one stream an hour behind: that one goes.
	ctx3, cancel3 := context.WithCancel(context.Background())
	h3, ok := tbl.add(cancel3, time.Now().Add(time.Minute))
	if !ok {
		t.Fatal("add with an overdue evictee available was refused")
	}
	select {
	case <-ctx2.Done():
	case <-time.After(time.Second):
		t.Fatal("most-overdue subscriber was not cancelled")
	}
	if ctx1.Err() != nil || ctx3.Err() != nil {
		t.Fatal("wrong subscriber evicted")
	}
	if tbl.count() != 2 {
		t.Fatalf("count = %d, want 2", tbl.count())
	}

	// Catch stream 1 up; now everyone is healthy and newcomers are shed.
	tbl.touch(h1, time.Now().Add(time.Minute))
	if _, ok := tbl.add(func() {}, time.Now().Add(time.Minute)); ok {
		t.Fatal("newcomer admitted over a table of healthy subscribers")
	}
	if ctx1.Err() != nil || ctx3.Err() != nil {
		t.Fatal("healthy subscriber cancelled by a shed add")
	}

	// A freed slot admits again.
	tbl.remove(h3)
	if _, ok := tbl.add(func() {}, time.Now().Add(time.Minute)); !ok {
		t.Fatal("add refused after remove freed a slot")
	}
}
