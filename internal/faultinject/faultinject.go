// Package faultinject lets tests deterministically inject failures into
// the store's durability and training paths. A Hook is consulted at each
// named fault point; returning an error makes that operation fail, and a
// hook may panic to exercise crash-recovery paths. Production code runs
// with a nil hook, which costs one atomic load per fault point.
package faultinject

import (
	"errors"
	"sync/atomic"
	"time"
)

// Op names one fault point.
type Op string

// Fault points consulted by the store.
const (
	// OpTrain fires right before an object's first train, on the goroutine
	// of the observe (or recovery) that made it due.
	OpTrain Op = "train"
	// OpWALAppend fires before a write-ahead-log record is written; an
	// error here means the observation is not acknowledged.
	OpWALAppend Op = "wal-append"
	// OpSnapshot fires at the start of a checkpoint; an error aborts the
	// snapshot and keeps every WAL segment intact.
	OpSnapshot Op = "snapshot"
	// OpSnapshotShard fires before each per-shard segment write inside a
	// checkpoint; an error aborts the checkpoint after some segments may
	// already be on disk — the manifest is never updated, so the previous
	// snapshot and every WAL segment stay authoritative.
	OpSnapshotShard Op = "snapshot-shard"
	// OpManifest fires twice per checkpoint: once before the manifest is
	// committed (an error aborts with the old manifest intact) and once
	// after the rename but before WAL reclaim (an error simulates a crash
	// in the window where the new snapshot is live but obsolete WAL
	// segments still exist — they must replay as no-ops).
	OpManifest Op = "manifest"
	// OpWALSyncError fires before each WAL group-commit fsync (and in the
	// store's recovery probe); an error fails the sync without touching
	// the segment's bytes, simulating a stalling or erroring disk flush.
	OpWALSyncError Op = "wal-sync-error"
	// OpWALSyncLatency fires before each WAL fsync purely so a hook can
	// sleep there, simulating a slow disk; returned errors fail the sync
	// like OpWALSyncError.
	OpWALSyncLatency Op = "wal-sync-latency"
	// OpDiskFull fires before WAL segment writes, before snapshot writes,
	// and in the recovery probe; an error simulates ENOSPC (wrap
	// syscall.ENOSPC to exercise the store's immediate-degrade path). A
	// failed segment write leaves the segment tail untrusted, exactly
	// like a real short write.
	OpDiskFull Op = "disk-full"
	// OpSlowClient fires at request admission in the HTTP layer so a hook
	// can sleep there, simulating a slow or stalled client holding a
	// request slot.
	OpSlowClient Op = "slow-client"
)

// Hook decides the fate of one operation: nil lets it proceed, an error
// fails it, and a panic crashes it (the store's trainers recover).
type Hook func(Op) error

// ErrInjected is the default error returned by injected failures.
var ErrInjected = errors.New("faultinject: injected failure")

// FailN returns a hook that fails the first n invocations of op with err
// (ErrInjected when err is nil) and then lets everything through. Safe for
// concurrent use.
func FailN(op Op, n int64, err error) Hook {
	if err == nil {
		err = ErrInjected
	}
	var count atomic.Int64
	return func(got Op) error {
		if got == op && count.Add(1) <= n {
			return err
		}
		return nil
	}
}

// DelayN returns a hook that sleeps d on the first n invocations of op
// and then lets everything through untouched, simulating slow hardware
// (a stalling fsync, a congested disk) or a slow client. It never fails
// the operation. Safe for concurrent use; n < 0 delays forever.
func DelayN(op Op, n int64, d time.Duration) Hook {
	var count atomic.Int64
	return func(got Op) error {
		if got == op && (n < 0 || count.Add(1) <= n) {
			time.Sleep(d)
		}
		return nil
	}
}
