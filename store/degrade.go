package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"hpm/internal/faultinject"
)

// Degraded read-only mode. A durable store whose WAL stops accepting
// writes — the disk fills, fsync starts erroring, a write tears a segment
// — must not wedge every writer on a dead device, and must not keep
// acknowledging observations it cannot make durable. Instead the store
// runs a small state machine:
//
//	healthy ──persistent WAL failure──▶ degraded ──probe succeeds──▶ recovering ──▶ healthy
//	                                       ▲                             │
//	                                       └────────reset/checkpoint fails
//
// Degraded: writes (ObserveBatch, ObserveAll, Checkpoint) fail
// fast with ErrDegraded; queries, predictions and the fleet index keep
// serving from memory untouched. A background probe writes and fsyncs a
// sentinel file in the data directory with exponential backoff; once the
// disk answers again, recovery rotates the WAL to a fresh segment
// (repairing any torn tail first), re-opens writes, and checkpoints so
// the backlog of segments compacts.
//
// What flips the state: a failed segment *write* (short write / ENOSPC)
// degrades immediately — the segment tail is now untrusted; a failed
// *fsync* counts toward Options.DegradeAfter consecutive failures before
// degrading, since a lone EINTR-ish hiccup is retriable in place. Every
// failure path preserves the acknowledgment barrier: an observation whose
// commit failed was never applied to the track, so "no acknowledged write
// is ever lost across a degrade/recover cycle" holds by construction.

// ErrDegraded is returned by write paths while the store is degraded
// (read-only) after persistent WAL failure. Callers can errors.Is against
// it; the HTTP layer maps it to 503 + Retry-After.
var ErrDegraded = errors.New("store: degraded, writes disabled")

// Store health states. Stored in Store.state as an atomic so the hot
// write path checks them with one load.
const (
	stateHealthy int32 = iota
	stateDegraded
	stateRecovering
)

// stateNames maps states to their wire names (Health.State, /metrics).
var stateNames = [...]string{"healthy", "degraded", "recovering"}

// probe sentinel file name inside the data directory.
const probeFile = ".hpm-probe"

// maxProbeInterval caps the recovery probe's exponential backoff.
const maxProbeInterval = 15 * time.Second

// degraded reports whether the store is currently refusing writes.
func (s *Store) degraded() bool { return s.state.Load() != stateHealthy }

// stateName returns the health state's wire name: "healthy", "degraded" or
// "recovering".
func (s *Store) stateName() string { return stateNames[s.state.Load()] }

// writable fails fast with ErrDegraded (carrying the causing WAL error)
// when the store is refusing writes. In-memory stores never degrade.
func (s *Store) writable() error {
	if s.state.Load() == stateHealthy {
		return nil
	}
	if cause := s.lastWALError(); cause != nil {
		return fmt.Errorf("%w (%w)", ErrDegraded, cause)
	}
	return ErrDegraded
}

// degradedErr wraps a WAL commit failure as ErrDegraded when the store
// has flipped read-only: noteWALFlush runs before a commit's waiters are
// released, so the appender whose flush triggered the degrade — and every
// appender failed behind it — observes the final state here.
func (s *Store) degradedErr(err error) error {
	if err == nil || s.state.Load() == stateHealthy || errors.Is(err, ErrDegraded) {
		return err
	}
	return fmt.Errorf("%w (%w)", ErrDegraded, err)
}

// lastWALError returns the most recent WAL failure, nil if none.
func (s *Store) lastWALError() error {
	s.degradeMu.Lock()
	defer s.degradeMu.Unlock()
	return s.lastWALErr
}

// noteWALFlush observes every WAL group commit's outcome; the wal calls
// it (without holding wal.mu) before releasing the commit's waiters, so a
// failing appender finds the store already flipped. broke marks a failed
// segment write — the tail is torn and appends to it are unsafe — which
// degrades immediately, as does ENOSPC anywhere. Plain fsync failures
// degrade after Options.DegradeAfter in a row; any success resets the
// run.
func (s *Store) noteWALFlush(err error, broke bool) {
	if err == nil {
		s.syncFails.Store(0)
		return
	}
	s.walErrors.Add(1)
	s.degradeMu.Lock()
	s.lastWALErr = err
	s.degradeMu.Unlock()
	if broke || errors.Is(err, syscall.ENOSPC) {
		s.degrade()
		return
	}
	if s.syncFails.Add(1) >= int64(s.opts.DegradeAfter) {
		s.degrade()
	}
}

// degrade flips healthy → degraded and starts the recovery probe. Already
// degraded or recovering stores are left alone: the probe (or the
// recovery attempt that is about to fail back to degraded) owns the state
// from here.
func (s *Store) degrade() {
	if !s.state.CompareAndSwap(stateHealthy, stateDegraded) {
		return
	}
	s.degrades.Add(1)
	s.degradeMu.Lock()
	if !s.stopped {
		s.probeWG.Add(1)
		go func() {
			defer s.probeWG.Done()
			s.probeLoop()
		}()
	}
	s.degradeMu.Unlock()
}

// probeLoop retries the disk with exponential backoff until a sentinel
// write+fsync round-trips, then runs recovery. It exits when recovery
// completes or the store closes; a recovery that fails midway drops the
// state back to degraded and keeps probing.
func (s *Store) probeLoop() {
	backoff := s.opts.ProbeInterval
	timer := time.NewTimer(backoff)
	defer timer.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-timer.C:
		}
		if s.probeOnce() == nil && s.recoverWAL() == nil {
			return
		}
		if backoff < maxProbeInterval {
			backoff *= 2
			if backoff > maxProbeInterval {
				backoff = maxProbeInterval
			}
		}
		timer.Reset(backoff)
	}
}

// probeOnce checks whether the data directory accepts a durable write:
// create, write, fsync and remove a sentinel file. It consults the same
// fault points as the WAL flush so injected persistent failures hold the
// store degraded deterministically in tests.
func (s *Store) probeOnce() error {
	if err := s.fault(faultinject.OpDiskFull); err != nil {
		return err
	}
	if err := s.fault(faultinject.OpWALSyncError); err != nil {
		return err
	}
	path := filepath.Join(s.dir, probeFile)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	_, err = f.Write([]byte("ok"))
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	os.Remove(path)
	return err
}

// recoverWAL is the degraded → recovering → healthy transition: repair
// and retire the damaged segment, open a fresh one, re-admit writes, then
// checkpoint so the segment backlog compacts. Nothing acknowledged is at
// stake anywhere here — records in the damaged tail were never
// acknowledged, records before it replay from the repaired frozen segment
// — so a failure at any step just returns the store to degraded for the
// next probe round.
func (s *Store) recoverWAL() error {
	if !s.state.CompareAndSwap(stateDegraded, stateRecovering) {
		return nil // closed store, or lost a race; nothing to do
	}
	if err := s.wal.reset(); err != nil {
		s.state.Store(stateDegraded)
		return err
	}
	if err := s.checkpoint(true); err != nil {
		s.state.Store(stateDegraded)
		return err
	}
	s.syncFails.Store(0)
	s.recoveries.Add(1)
	s.state.Store(stateHealthy)
	return nil
}
