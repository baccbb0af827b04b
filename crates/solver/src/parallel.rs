//! Multi-worker constraint solving on scoped threads.
//!
//! Obligations are independent verification conditions (§3.2 decides each
//! constraint on its own), so they can be solved concurrently. The design
//! keeps the solve phase *deterministic*:
//!
//! - results come back in obligation order regardless of worker count or
//!   scheduling ([`fan_out`] merges them by index);
//! - each chunk mints fresh variables from its own id range, fixed by the
//!   chunk's index and carved from the caller's supply before any thread
//!   starts ([`VarGen::carve`]), so no id depends on which thread claims
//!   which chunk — worker-fresh variables are internal to lowering and
//!   never escape into reported results;
//! - with `workers <= 1` the parent `gen` is threaded through directly,
//!   reproducing the sequential pipeline's variable consumption exactly.
//!
//! Work is distributed in *chunks* sized by estimated Fourier–Motzkin
//! cost, not one obligation per task: atoms per obligation approximate
//! the upper×lower pair combinations FM will perform, so chunk boundaries
//! land where the work is, a few chunks per worker leave room for
//! stealing, and the shared cursor is touched once per chunk instead of
//! once per goal. Threads come from `std::thread::scope` on every call;
//! a spawn and join costs tens of microseconds (EXPERIMENTS.md, "Scoped
//! threads in place of the solver pool").

use crate::goal::{Outcome, Solver};
use dml_index::{Constraint, VarGen};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Chunks per worker the batch is split into. >1 so a worker that hits a
/// slow chunk can have the rest of its share stolen; small enough that
/// chunk claiming stays off the profile.
const CHUNKS_PER_WORKER: usize = 4;

/// Fresh ids carved per chunk. A goal lowers at most a handful of fresh
/// variables (`div`/`mod`/`min`/`max` operands), so 2¹⁶ ids per chunk is
/// far beyond any realistic chunk while letting a single compile run tens
/// of thousands of chunks before exhausting the 32-bit id space.
const CHUNK_IDS: u32 = 1 << 16;

/// The machine's available parallelism (1 when it cannot be read),
/// resolved once per process: the standard library asks the operating
/// system on every call, which costs microseconds each time.
pub fn available_parallelism() -> usize {
    static AVAILABLE: OnceLock<usize> = OnceLock::new();
    *AVAILABLE.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Resolves an optional worker-count request against the batch size.
///
/// `None` means "use available parallelism". The result is clamped to
/// `1..=n` (never more workers than obligations, never zero).
pub fn effective_workers(requested: Option<usize>, n: usize) -> usize {
    requested.unwrap_or_else(available_parallelism).clamp(1, n.max(1))
}

/// Runs `job(0)`, …, `job(n - 1)` on up to `workers` threads — the
/// caller's own plus `workers - 1` scoped helpers — and returns the
/// results in index order. Threads claim indices from a shared cursor, so
/// a slow job holds up only the thread running it. A panic in any job
/// reaches the caller once every thread has stopped. With one worker (or
/// fewer than two jobs) everything runs on the calling thread, in order.
pub fn fan_out<T: Send>(workers: usize, n: usize, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let workers = workers.clamp(1, n.max(1));
    if workers == 1 {
        return (0..n).map(job).collect();
    }
    // The cursor publishes nothing but the index it hands out; results
    // travel back through `join`, so `Relaxed` suffices.
    let next = AtomicUsize::new(0);
    let claim = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return done;
            }
            done.push((i, job(i)));
        }
    };
    let mut done = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..workers).map(|_| s.spawn(claim)).collect();
        let mut done = claim();
        for helper in helpers {
            done.extend(helper.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)));
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, result)| result).collect()
}

/// Estimated Fourier–Motzkin cost of one obligation, in arbitrary units.
///
/// FM pair combination is quadratic in the inequalities in play, and each
/// atom of the constraint contributes a bounded number of inequalities,
/// so `atoms²` tracks the pair-combination counters the fuel meter
/// charges far better than a flat per-goal estimate. `+1` keeps
/// trivial obligations from costing zero (claiming them is not free).
fn estimated_cost(c: &Constraint) -> u64 {
    let atoms = c.atom_count() as u64;
    atoms * atoms + 1
}

/// Splits `constraints` into at most `workers × CHUNKS_PER_WORKER`
/// contiguous chunks of roughly equal estimated cost. Contiguity keeps the
/// result merge trivially in obligation order.
fn cost_chunks(constraints: &[&Constraint], workers: usize) -> Vec<(usize, usize)> {
    let total: u64 = constraints.iter().map(|c| estimated_cost(c)).sum();
    let target_chunks = (workers * CHUNKS_PER_WORKER).min(constraints.len()).max(1);
    let per_chunk = (total / target_chunks as u64).max(1);
    let mut chunks = Vec::with_capacity(target_chunks);
    let mut start = 0usize;
    let mut acc = 0u64;
    for (i, c) in constraints.iter().enumerate() {
        acc += estimated_cost(c);
        if acc >= per_chunk && i + 1 < constraints.len() {
            chunks.push((start, i + 1));
            start = i + 1;
            acc = 0;
        }
    }
    if start < constraints.len() {
        chunks.push((start, constraints.len()));
    }
    chunks
}

/// Proves every constraint, returning one [`Outcome`] per constraint in
/// input order.
///
/// The solver's verdict cache is shared across all workers (it is behind an
/// `Arc`), so a goal proven on one worker is a cache hit on every other.
pub fn prove_all(solver: &Solver, constraints: &[&Constraint], gen: &mut VarGen) -> Vec<Outcome> {
    let workers = effective_workers(solver.options().workers, constraints.len());
    if workers <= 1 {
        return constraints.iter().map(|c| solver.prove(c, gen)).collect();
    }
    let chunks = cost_chunks(constraints, workers);
    let count = u32::try_from(chunks.len()).expect("chunk count fits the id space");
    let gens = gen.carve(count, CHUNK_IDS);
    let solve_chunk = |ci: usize| -> Vec<Outcome> {
        let (start, end) = chunks[ci];
        let mut gen = gens[ci].clone();
        constraints[start..end].iter().map(|c| solver.prove(c, &mut gen)).collect()
    };
    fan_out(workers, chunks.len(), solve_chunk).into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::goal::SolverOptions;
    use dml_index::{IExp, Prop, Sort};

    /// `∀n. 0 ≤ n ⊃ 0 ≤ n + k` — valid for k ≥ 0, falsifiable for k < 0.
    fn shifted(gen: &mut VarGen, k: i64) -> Constraint {
        let n = gen.fresh("n");
        Constraint::Forall(
            n.clone(),
            Sort::Int,
            Box::new(Constraint::Implies(
                Prop::le(IExp::lit(0), IExp::var(n.clone())),
                Box::new(Constraint::Prop(Prop::le(IExp::lit(0), IExp::var(n) + IExp::lit(k)))),
            )),
        )
    }

    fn verdicts(outcomes: &[Outcome]) -> Vec<Vec<bool>> {
        outcomes.iter().map(|o| o.results.iter().map(|(_, r)| r.is_proven()).collect()).collect()
    }

    #[test]
    fn effective_workers_clamps() {
        assert_eq!(effective_workers(Some(4), 100), 4);
        assert_eq!(effective_workers(Some(0), 100), 1);
        assert_eq!(effective_workers(Some(64), 3), 3, "never more workers than work");
        assert_eq!(effective_workers(Some(8), 0), 1, "empty batch still one worker");
        assert!(effective_workers(None, 100) >= 1);
    }

    #[test]
    fn parallel_matches_sequential_in_order_and_verdict() {
        let mut gen = VarGen::new();
        let cs: Vec<Constraint> = (-4..28).map(|k| shifted(&mut gen, k)).collect();
        let refs: Vec<&Constraint> = cs.iter().collect();

        let mut gen_seq = gen.clone();
        let seq = Solver::new(SolverOptions { workers: Some(1), ..SolverOptions::default() });
        let sequential = prove_all(&seq, &refs, &mut gen_seq);

        let mut gen_par = gen.clone();
        let par = Solver::new(SolverOptions { workers: Some(4), ..SolverOptions::default() });
        let parallel = prove_all(&par, &refs, &mut gen_par);

        assert_eq!(sequential.len(), refs.len());
        assert_eq!(verdicts(&sequential), verdicts(&parallel));
        // The first four (k = -4..0) are falsifiable, the rest valid —
        // confirming order is preserved, not just multiset equality.
        for (i, row) in verdicts(&parallel).iter().enumerate() {
            assert_eq!(row, &vec![i >= 4], "obligation {i}");
        }
    }

    #[test]
    fn workers_share_the_verdict_cache() {
        let mut gen = VarGen::new();
        // 32 alpha-variants of one goal: one miss, the rest hits.
        let cs: Vec<Constraint> = (0..32).map(|_| shifted(&mut gen, 1)).collect();
        let refs: Vec<&Constraint> = cs.iter().collect();
        let solver = Solver::new(SolverOptions { workers: Some(4), ..SolverOptions::default() });
        let outcomes = prove_all(&solver, &refs, &mut gen);
        assert!(outcomes.iter().all(|o| o.all_proven()));
        assert_eq!(solver.cache().len(), 1, "all variants share one canonical entry");
        assert!(solver.cache().hits() > 0);
    }

    #[test]
    fn empty_batch_is_fine() {
        let mut gen = VarGen::new();
        let solver = Solver::default();
        assert!(prove_all(&solver, &[], &mut gen).is_empty());
    }
}
