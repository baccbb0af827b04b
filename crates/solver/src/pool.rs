//! A persistent, lazily-initialized solver worker pool.
//!
//! [`crate::parallel::prove_all`] used to spawn fresh OS threads through
//! `std::thread::scope` on every compile. With the rest of the hot path
//! optimised, per-compile spawn/join cost dominated the parallel solve on
//! the seed suite, making `workers=auto` a net *loss* against `workers=1`.
//! This module keeps one process-wide set of helper threads that park on a
//! condvar between batches, so a compile pays a notify instead of N
//! spawns.
//!
//! ## Shape
//!
//! - Helper threads are spawned once, on the first parallel batch
//!   ([`prewarm`] forces this eagerly). There are
//!   `available_parallelism - 1` helpers; the submitting thread always
//!   works its own batch too, so up to the machine's full parallelism
//!   applies to a batch.
//! - A batch is a slice of obligations pre-chunked by estimated
//!   Fourier–Motzkin cost (see [`crate::parallel`]). Threads *steal whole
//!   chunks* through an atomic cursor — one slow chunk cannot serialise
//!   the rest, and the chunk granularity keeps the cursor cold.
//! - Fresh-variable soundness under stealing comes from
//!   [`dml_index::VarLease`]: each stolen chunk leases a disjoint id range
//!   at execution time, instead of partitioning ids per worker at spawn
//!   time (which assumes a fixed worker set).
//! - Determinism: every result lands in its obligation's slot, so the
//!   merged output (verdicts, stats) is identical for every worker count
//!   and every steal schedule.
//!
//! ## Safety
//!
//! The pool's helpers are `'static` threads, but a batch borrows the
//! caller's solver, constraint slice, and result slots. The bridge is
//! `Batch`: it erases those borrows to raw pointers, and `run_batch` does
//! not return until every chunk has been claimed *and finished* (tracked
//! by a mutex-guarded counter). Helpers only dereference the pointers
//! between claiming a chunk and reporting it finished, so no helper can
//! observe the borrows after `run_batch` returns them to the caller.

use crate::goal::{Outcome, Solver};
use dml_index::{Constraint, VarLease};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Ids leased per chunk. A goal lowers at most a handful of fresh
/// variables (`div`/`mod`/`min`/`max` operands), so 2¹⁶ ids per chunk is
/// far beyond any realistic chunk while letting a single compile run tens
/// of thousands of chunks before exhausting the 32-bit id space.
pub(crate) const LEASE_STRIDE: u32 = 1 << 16;

/// One parallel solve: borrowed inputs erased to pointers plus the
/// atomic scheduling state shared by the submitter and the helpers.
struct Batch {
    solver: *const Solver,
    /// Data pointer of the caller's `&[&Constraint]` (`&T` and `*const T`
    /// share a layout, so each element reads back as a `*const Constraint`).
    constraints: *const *const Constraint,
    /// Result slot per obligation; each slot is written exactly once, by
    /// whichever thread claimed the chunk containing it.
    slots: *mut Option<Outcome>,
    /// Half-open obligation ranges; the unit of stealing.
    chunks: Vec<(usize, usize)>,
    /// Cursor over `chunks`.
    next_chunk: AtomicUsize,
    /// Helpers working this batch (the submitter is not counted).
    helpers: AtomicUsize,
    /// Maximum helpers allowed (requested workers minus the submitter).
    helper_cap: usize,
    /// Fresh-id region for this batch; every claimed chunk leases from it.
    lease: VarLease,
    /// Chunks not yet finished, guarded so the submitter can sleep on
    /// completion. The mutex also orders each chunk's slot writes before
    /// the submitter's final read of the slots.
    pending: Mutex<usize>,
    done: Condvar,
    panicked: AtomicBool,
}

// SAFETY: the raw pointers target the submitting thread's borrows, which
// stay valid until `submit_and_work` returns — and it only returns after
// `pending` reaches zero, i.e. after every thread has stopped touching
// them. Slot writes are disjoint (one chunk owns each index) and are
// published to the submitter by the `pending` mutex.
unsafe impl Send for Batch {}
unsafe impl Sync for Batch {}

impl Batch {
    /// Claims and solves chunks until the cursor runs dry. Returns the
    /// number of chunks this thread completed.
    fn work(&self) -> usize {
        let mut completed = 0;
        loop {
            let ci = self.next_chunk.fetch_add(1, Ordering::Relaxed);
            let Some(&(start, end)) = self.chunks.get(ci) else { break };
            // Lease fresh ids at claim time — this is what keeps id
            // generation sound under stealing (see `VarLease`).
            let mut gen = self.lease.lease(LEASE_STRIDE);
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                // SAFETY: see the `Send`/`Sync` impls — the borrows are
                // live until the batch completes, and this chunk's slot
                // indices are touched by this thread only.
                let solver = unsafe { &*self.solver };
                for i in start..end {
                    let c: &Constraint = unsafe { &*(*self.constraints.add(i)) };
                    let outcome = solver.prove(c, &mut gen);
                    unsafe { *self.slots.add(i) = Some(outcome) };
                }
            }));
            if result.is_err() {
                self.panicked.store(true, Ordering::Relaxed);
            }
            completed += 1;
            let mut pending = self.pending.lock().expect("solver pool poisoned");
            *pending -= 1;
            if *pending == 0 {
                self.done.notify_all();
            }
        }
        completed
    }

    /// `true` while the batch has unclaimed chunks and spare helper slots.
    fn wants_helpers(&self) -> bool {
        self.next_chunk.load(Ordering::Relaxed) < self.chunks.len()
            && self.helpers.load(Ordering::Relaxed) < self.helper_cap
    }

    /// Atomically takes a helper slot; `false` if the cap is reached.
    fn try_join(&self) -> bool {
        self.helpers
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |h| {
                (h < self.helper_cap).then_some(h + 1)
            })
            .is_ok()
    }
}

/// The process-wide pool: a queue of in-flight batches and the condvar
/// helpers park on between batches.
struct Pool {
    queue: Mutex<VecDeque<Arc<Batch>>>,
    available: Condvar,
    helpers: usize,
}

impl Pool {
    fn helper_main(&'static self) {
        loop {
            let batch = {
                let mut queue = self.queue.lock().expect("solver pool poisoned");
                loop {
                    if let Some(batch) =
                        queue.iter().find(|b| b.wants_helpers() && b.try_join()).cloned()
                    {
                        break batch;
                    }
                    queue = self.available.wait(queue).expect("solver pool poisoned");
                }
            };
            batch.work();
        }
    }
}

static POOL: OnceLock<Pool> = OnceLock::new();

/// The pool, spawning its helper threads on first use.
///
/// The helper count defaults to `available_parallelism - 1` (the
/// submitting thread is the remaining worker). `DML_SOLVER_HELPERS`
/// overrides it — used by tests to exercise the helper threads on
/// single-core machines, where the default is zero.
fn pool() -> &'static Pool {
    POOL.get_or_init(|| {
        let helpers = std::env::var("DML_SOLVER_HELPERS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1).saturating_sub(1)
            });
        Pool { queue: Mutex::new(VecDeque::new()), available: Condvar::new(), helpers }
    });
    let pool = POOL.get().expect("just initialised");
    // Spawn exactly once, after the OnceLock is published, so
    // `helper_main` can take the `'static` reference.
    static SPAWNED: OnceLock<()> = OnceLock::new();
    SPAWNED.get_or_init(|| {
        for i in 0..pool.helpers {
            std::thread::Builder::new()
                .name(format!("dml-solver-{i}"))
                .spawn(move || pool.helper_main())
                .expect("failed to spawn solver pool helper");
        }
    });
    pool
}

/// Eagerly spawns the pool's helper threads (they are otherwise spawned on
/// the first parallel batch). Call this to take the one-time thread-spawn
/// cost off the first compile's clock; calling it again is free. Returns
/// the number of persistent helper threads (0 on a single-core machine —
/// the submitting thread still solves every batch).
pub fn prewarm() -> usize {
    pool().helpers
}

/// `true` once the pool's helper threads exist, i.e. a parallel batch (or
/// [`prewarm`]) already paid the spawn cost. Used by benches to separate
/// pool-cold from pool-warm measurements.
pub fn is_warm() -> bool {
    POOL.get().is_some()
}

/// Runs one batch on the pool: enqueues it for helpers, works it from the
/// submitting thread too, and blocks until every chunk is finished.
///
/// `chunks` are half-open `(start, end)` obligation ranges covering
/// `constraints` exactly; `lease` must be sized for one
/// [`LEASE_STRIDE`]-id lease per chunk; `workers` is the total thread
/// budget including the submitter.
pub(crate) fn run_batch(
    solver: &Solver,
    constraints: &[&Constraint],
    slots: &mut [Option<Outcome>],
    chunks: Vec<(usize, usize)>,
    lease: VarLease,
    workers: usize,
) {
    debug_assert_eq!(constraints.len(), slots.len());
    let n_chunks = chunks.len();
    let batch = Arc::new(Batch {
        solver,
        constraints: constraints.as_ptr().cast::<*const Constraint>(),
        slots: slots.as_mut_ptr(),
        chunks,
        next_chunk: AtomicUsize::new(0),
        helpers: AtomicUsize::new(0),
        helper_cap: workers.saturating_sub(1),
        lease,
        pending: Mutex::new(n_chunks),
        done: Condvar::new(),
        panicked: AtomicBool::new(false),
    });
    let pool = pool();
    {
        let mut queue = pool.queue.lock().expect("solver pool poisoned");
        queue.push_back(Arc::clone(&batch));
    }
    pool.available.notify_all();

    // The submitter is worker #0: it works the batch rather than idling,
    // which also guarantees progress when the pool has no helpers (single
    // core) or all helpers are busy with other batches.
    batch.work();

    let mut pending = batch.pending.lock().expect("solver pool poisoned");
    while *pending > 0 {
        pending = batch.done.wait(pending).expect("solver pool poisoned");
    }
    drop(pending);

    // Retire the batch so parked helpers skip it. Helpers that already
    // hold a clone only touch scheduling state after this point (their
    // cursor reads fail), never the borrowed pointers.
    {
        let mut queue = pool.queue.lock().expect("solver pool poisoned");
        queue.retain(|b| !Arc::ptr_eq(b, &batch));
    }

    if batch.panicked.load(Ordering::Relaxed) {
        panic!("solver worker panicked");
    }
}
