package shmem

import "sync/atomic"

// Stats aggregates world-wide operation counters, updated atomically by
// all PEs.
type Stats struct {
	RemotePuts    atomic.Int64
	RemoteGets    atomic.Int64
	PutBytes      atomic.Int64
	GetBytes      atomic.Int64
	Barriers      atomic.Int64
	LockAcquires  atomic.Int64
	LockContended atomic.Int64
}

// StatsSnapshot is an immutable copy of Stats, plus the worker-scheduler
// activity for worlds run under RunScheduled (zero-valued otherwise).
type StatsSnapshot struct {
	RemotePuts    int64
	RemoteGets    int64
	PutBytes      int64
	GetBytes      int64
	Barriers      int64
	LockAcquires  int64
	LockContended int64
	Sched         SchedSnapshot
}

func (s *Stats) snapshot() StatsSnapshot {
	return StatsSnapshot{
		RemotePuts:    s.RemotePuts.Load(),
		RemoteGets:    s.RemoteGets.Load(),
		PutBytes:      s.PutBytes.Load(),
		GetBytes:      s.GetBytes.Load(),
		Barriers:      s.Barriers.Load(),
		LockAcquires:  s.LockAcquires.Load(),
		LockContended: s.LockContended.Load(),
	}
}

// PEStats counts one PE's operations (no atomics needed: single writer).
type PEStats struct {
	RemotePuts   int64
	RemoteGets   int64
	Barriers     int64
	LockAcquires int64
}
