// Package repro is a complete Go reproduction of "I Can Has Supercomputer?
// A Novel Approach to Teaching Parallel and Distributed Computing Concepts
// Using a Meme-Based Programming Language" (Richie & Ross, 2017): parallel
// LOLCODE — LOLCODE-1.2 with SPMD/PGAS extensions — together with every
// substrate the paper depends on.
//
// The pieces, bottom to top:
//
//   - internal/shmem: an OpenSHMEM-flavoured PGAS runtime over goroutines
//     (symmetric heaps, one-sided put/get, barriers, locks);
//   - internal/noc and internal/machine: latency models for the paper's
//     platforms — the Epiphany-III 2D-mesh NoC on the Parallella board and
//     a Cray XC40-style hierarchy;
//   - internal/lexer, parser, sema: the language frontend for Tables I-III;
//     sema also performs the slot-resolution pass that assigns every
//     variable its frame slot and lexical depth, shared by all backends;
//   - internal/backend: the Backend interface, engine registry, and the
//     SPMD execution plumbing (Config, Result, per-PE output) every engine
//     shares — including the cancellation/budget contract (Config.Context,
//     Config.StepBudget, Meter) that bounds every run's wall clock and
//     per-PE step count;
//   - internal/interp, vm, compile: the three execution engines spanning
//     the classic design space — a tree-walking interpreter, a
//     slot-addressed bytecode VM (arithmetic typed from sema's static
//     kinds runs as word ops, with weight-preserving step metering;
//     `lolrun -dump-bytecode` prints the listing),
//     and a closure compiler (select one with
//     `lolrun -backend=interp|vm|compile`);
//   - internal/gogen: the LOLCODE-to-Go source emitter (the paper's lcc
//     emitted C + OpenSHMEM), with a typed fast path that unboxes
//     statically-known NUMBR/NUMBAR locals to raw Go scalars; emitted
//     mains speak the internal/native/child protocol so they can serve
//     as lolserv's fourth execution tier;
//   - internal/native: the native tier's mechanics — an on-disk binary
//     cache keyed by source sha256 + gogen version (with an optional byte
//     quota that evicts least-recently-used binaries), and a subprocess
//     runner that maps a job's budgets onto the child (RLIMIT_CPU for the
//     step budget, context kill for deadlines, pipe caps for output);
//     children self-jail via internal/native/sandbox — rlimits plus a
//     Landlock deny-all filesystem policy where the kernel offers it — so
//     untrusted promoted code is contained by the OS, not by cooperative
//     metering, and internal/faultinject gives the chaos tests (and
//     operators running drills) failpoints inside the build, run, and
//     result-cache paths;
//   - internal/server: the concurrent job-execution service — an LRU
//     compiled-program cache (parse+sema+codegen once per unique program),
//     a deterministic result cache with singleflight coalescing (identical
//     jobs execute once; a run is cacheable iff its determinism audit
//     passes — no GIMMEH arbitration, shared state, or locks at NP>1, see
//     backend.Audit — and it completed ok, untruncated, under grouped
//     output), a batch API, a bounded worker pool with a per-program
//     fairness queue, enforced per-job deadlines and step budgets, and
//     the promotion policy of the four-tier execution ladder: programs
//     whose cache hit count crosses a threshold are compiled in the
//     background to standalone binaries and served as subprocesses;
//   - cmd/lcc, lolrun, lolfmt, lolbench, lolserv: the toolchain, the SPMD
//     launcher (coprsh/aprun analog), a formatter, the experiment harness,
//     and the HTTP execution daemon (`lolbench serve` load-tests it).
//
// bench_test.go in this directory carries one benchmark group per paper
// artifact; the experiment index is in the internal/experiments package
// doc.
package repro
