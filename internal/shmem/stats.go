package shmem

// StatsSnapshot is a world's operation counters, summed over the PEs of
// its finished runs, plus the worker-scheduler activity for worlds run
// under RunScheduled (zero-valued otherwise).
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

// PEStats counts one PE's operations. Only the PE itself writes them, so
// they need no atomics, and no other PE writes their cache line.
type PEStats struct {
	RemotePuts    int64
	RemoteGets    int64
	PutBytes      int64
	GetBytes      int64
	Barriers      int64
	LockAcquires  int64
	LockContended int64
}
