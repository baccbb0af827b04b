//! Seeded inputs of every workload. The program under test only ever sees
//! what these functions generate: scale-corpus sources, solver goals and
//! the edited sources of an editing session. The same seed gives
//! byte-identical inputs.
//!
//! Corpora are a stratified draw from the scale-corpus generator: the
//! seed picks which generated units are used and in what order, but the
//! number of units of each shape and depth depends on the size alone.
//! A plain draw lets the shape mix, and with it the cost of a check, vary
//! from seed to seed by more than the regressions the benchmark must see.

use dml_index::VarGen;
use dml_oracle::scale::{
    gen_scale_corpus, ExpectedCounts, ScaleCase, ScaleConfig, ScaleCorpus, ScaleUnit,
};
use dml_oracle::{gen_goal, GenConfig, OracleRng};
use dml_solver::Goal;
use std::collections::VecDeque;

/// Input sizes of a run: the measured sizes, or the small `--smoke` ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Obligations across the `batch` corpus.
    pub batch_obligations: usize,
    /// Files the `batch` corpus is split over.
    pub batch_files: usize,
    /// Obligations in the single `megafile` file.
    pub megafile_obligations: usize,
    /// Distinct goals one `goals` pass decides.
    pub goals_per_pass: usize,
    /// Obligations in the file an `edit_session` edits.
    pub session_obligations: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// `native` program arguments: array size and iterations.
    pub native_argv: [(i64, i64); 3],
}

impl Sizes {
    /// The sizes every reported number is measured at.
    pub const FULL: Sizes = Sizes {
        batch_obligations: 10_000,
        batch_files: 16,
        megafile_obligations: 3_000,
        goals_per_pass: 20_000,
        session_obligations: 400,
        setups: 3,
        native_argv: [(100_000, 250), (2_048, 10), (150, 2)],
    };

    /// Small sizes for `--smoke`: every code path, none of the numbers.
    pub const SMOKE: Sizes = Sizes {
        batch_obligations: 300,
        batch_files: 4,
        megafile_obligations: 120,
        goals_per_pass: 300,
        session_obligations: 80,
        setups: 1,
        native_argv: [(64, 1); 3],
    };
}

/// SplitMix64 finaliser: derives independent sub-seeds from one `--seed`.
pub fn derive_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const SALT_BATCH: u64 = 1;
const SALT_MEGAFILE: u64 = 2;
const SALT_GOALS: u64 = 3;
const SALT_GOALS_WARMUP: u64 = 4;
const SALT_SESSION: u64 = 5;
const SALT_SESSION_EDITS: u64 = 7;

/// The stamp of each unit shape the scale generator emits, which
/// identifies the shape: a proven, residual or mixed call chain of
/// `depth` levels, or a nonlinear leaf.
fn proven(depth: usize) -> ExpectedCounts {
    ExpectedCounts { check_sites: depth, proven_sites: depth, ..ExpectedCounts::default() }
}

fn residual(depth: usize) -> ExpectedCounts {
    ExpectedCounts { check_sites: depth, residual_sites: depth, ..ExpectedCounts::default() }
}

fn mixed(depth: usize) -> ExpectedCounts {
    ExpectedCounts {
        check_sites: depth,
        proven_sites: depth - 1,
        residual_sites: 1,
        nonlinear_sites: 0,
    }
}

fn nonlinear(_depth: usize) -> ExpectedCounts {
    ExpectedCounts { check_sites: 1, residual_sites: 1, nonlinear_sites: 1, proven_sites: 0 }
}

/// The order in which a draw takes shapes: the generator's default
/// weights (proven 5, residual 2, mixed 2, nonlinear 1) with every chain
/// depth it emits (2 to 6), depth cycling fastest so that any prefix of
/// the recipe mixes depths evenly. 50 slots, 505 obligations.
fn recipe() -> Vec<ExpectedCounts> {
    type Shape = fn(usize) -> ExpectedCounts;
    let pattern: [Shape; 10] =
        [proven, residual, proven, mixed, proven, nonlinear, proven, residual, proven, mixed];
    pattern.iter().flat_map(|shape| (2..=6).map(shape)).collect()
}

/// Generated units sorted by shape, each remembering its position in the
/// generator's output. Units of one pool have distinct declaration names.
struct Pool {
    buckets: Vec<(ExpectedCounts, VecDeque<(usize, ScaleUnit)>)>,
}

impl Pool {
    fn new(seed: u64, obligations: usize) -> Pool {
        let mut corpus = gen_scale_corpus(&ScaleConfig::new(seed, obligations).files(1));
        let mut buckets: Vec<(ExpectedCounts, VecDeque<(usize, ScaleUnit)>)> = Vec::new();
        for (i, unit) in corpus.cases.remove(0).units.into_iter().enumerate() {
            match buckets.iter_mut().find(|(shape, _)| *shape == unit.expected) {
                Some((_, units)) => units.push_back((i, unit)),
                None => buckets.push((unit.expected, VecDeque::from([(i, unit)]))),
            }
        }
        Pool { buckets }
    }

    /// The next unused unit of `shape`.
    fn take(&mut self, shape: ExpectedCounts) -> Option<(usize, ScaleUnit)> {
        self.buckets.iter_mut().find(|(s, _)| *s == shape)?.1.pop_front()
    }

    /// Units worth at least `obligations`, following the recipe, in
    /// generator order; `None` when the pool runs out of a shape.
    fn draw(&mut self, obligations: usize) -> Option<Vec<ScaleUnit>> {
        let mut units = Vec::new();
        let mut total = 0;
        for shape in recipe().into_iter().cycle() {
            if total >= obligations {
                break;
            }
            let unit = self.take(shape)?;
            total += unit.1.obligations;
            units.push(unit);
        }
        units.sort_by_key(|(i, _)| *i);
        Some(units.into_iter().map(|(_, u)| u).collect())
    }
}

/// Runs `draw` on a pool of three times `obligations`, doubling the pool
/// until no shape runs out. Deterministic per seed.
fn stratified<T>(seed: u64, obligations: usize, draw: impl Fn(&mut Pool) -> Option<T>) -> T {
    let mut size = 3 * obligations.max(1);
    loop {
        if let Some(out) = draw(&mut Pool::new(seed, size)) {
            return out;
        }
        size *= 2;
    }
}

/// `files` files of about `obligations / files` obligations each, every
/// file with the same shape mix.
fn corpus(seed: u64, obligations: usize, files: usize) -> ScaleCorpus {
    let per_file = obligations.div_ceil(files);
    let cases = stratified(seed, obligations, |pool| {
        (0..files)
            .map(|f| {
                Some(ScaleCase::from_units(format!("perf-s{seed}-f{f}"), pool.draw(per_file)?))
            })
            .collect::<Option<Vec<_>>>()
    });
    let mut expected = ExpectedCounts::default();
    for c in &cases {
        add_counts(&mut expected, &c.expected);
    }
    ScaleCorpus { obligations: cases.iter().map(|c| c.obligations).sum(), expected, cases }
}

fn add_counts(total: &mut ExpectedCounts, unit: &ExpectedCounts) {
    total.check_sites += unit.check_sites;
    total.proven_sites += unit.proven_sites;
    total.residual_sites += unit.residual_sites;
    total.nonlinear_sites += unit.nonlinear_sites;
}

/// The `batch` corpus: many files whose goals overlap across files.
pub fn batch_corpus(seed: u64, sizes: &Sizes) -> ScaleCorpus {
    corpus(derive_seed(seed, SALT_BATCH), sizes.batch_obligations, sizes.batch_files)
}

/// The `megafile` corpus: the same generator, one file.
pub fn megafile(seed: u64, sizes: &Sizes) -> ScaleCorpus {
    corpus(derive_seed(seed, SALT_MEGAFILE), sizes.megafile_obligations, 1)
}

/// `n` goals from the oracle's generator, plus the variable supply to
/// continue from when deciding them (fresh ids stay disjoint).
pub fn goal_stream(seed: u64, n: usize) -> (Vec<Goal>, VarGen) {
    goals_salted(seed, SALT_GOALS, n)
}

/// Warm-up goals: a different stream, so the measured passes start with
/// nothing of theirs in any cache.
pub fn warmup_goals(seed: u64, n: usize) -> (Vec<Goal>, VarGen) {
    goals_salted(seed, SALT_GOALS_WARMUP, n)
}

fn goals_salted(seed: u64, salt: u64, n: usize) -> (Vec<Goal>, VarGen) {
    let mut rng = OracleRng::new(derive_seed(seed, salt));
    let mut gen = VarGen::new();
    let cfg = GenConfig::default();
    let goals = (0..n).map(|_| gen_goal(&mut rng, &mut gen, &cfg)).collect();
    (goals, gen)
}

/// What one `check` request of an editing session changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EditKind {
    /// One annotated unit toggles `sub(v, X)` and `sub(v, 0 + X)`: the
    /// body changes, the signature and the declaration count do not.
    Body,
    /// One unit toggles with another generated unit of the same shape.
    Structural,
    /// The file is checked again as it is.
    Unchanged,
}

impl EditKind {
    /// Every kind, in reporting order.
    pub const ALL: [EditKind; 3] = [EditKind::Body, EditKind::Structural, EditKind::Unchanged];

    /// The kind's name in metric names and span tags.
    pub fn name(self) -> &'static str {
        match self {
            EditKind::Body => "body",
            EditKind::Structural => "structural",
            EditKind::Unchanged => "unchanged",
        }
    }
}

/// One request of an editing session: the whole file as the editor
/// sends it, and the verdict counts it must produce.
#[derive(Debug, Clone, PartialEq)]
pub struct EditRequest {
    /// What changed since the previous request.
    pub kind: EditKind,
    /// The file's full source.
    pub source: String,
    /// Stamped verdict counts of that source.
    pub expected: ExpectedCounts,
}

/// The seeded edit stream of the `edit_session` workload: half body
/// edits, a quarter structural edits, a quarter unchanged re-checks.
#[derive(Debug, Clone)]
pub struct EditScript {
    rng: OracleRng,
    base: Vec<ScaleUnit>,
    alt: Vec<ScaleUnit>,
    /// Per unit: whether the alternative unit is in place, and whether
    /// the body edit is applied.
    state: Vec<(bool, bool)>,
    /// Kinds left in the current group of four requests.
    pending: Vec<EditKind>,
}

impl EditScript {
    /// A script over a one-file corpus of about `obligations` obligations.
    /// Each unit's alternative has the same shape and depth, so structural
    /// edits change names and guards but not the size of the file.
    pub fn new(seed: u64, obligations: usize) -> EditScript {
        let (base, alt) = stratified(derive_seed(seed, SALT_SESSION), 2 * obligations, |pool| {
            let base = pool.draw(obligations)?;
            let alt = base.iter().map(|u| Some(pool.take(u.expected)?.1)).collect::<Option<_>>()?;
            Some((base, alt))
        });
        EditScript {
            rng: OracleRng::new(derive_seed(seed, SALT_SESSION_EDITS)),
            state: vec![(false, false); base.len()],
            base,
            alt,
            pending: Vec::new(),
        }
    }

    fn unit(&self, i: usize) -> &ScaleUnit {
        if self.state[i].0 {
            &self.alt[i]
        } else {
            &self.base[i]
        }
    }

    /// The file as it stands.
    pub fn current(&self, kind: EditKind) -> EditRequest {
        let mut source = String::new();
        let mut expected = ExpectedCounts::default();
        for i in 0..self.base.len() {
            let unit = self.unit(i);
            if self.state[i].1 {
                source.push_str(&unit.source.replacen("sub(v, ", "sub(v, 0 + ", 1));
            } else {
                source.push_str(&unit.source);
            }
            add_counts(&mut expected, &unit.expected);
        }
        EditRequest { kind, source, expected }
    }

    /// Applies the next seeded edit and returns the resulting request.
    /// Every four requests hold two body edits, one structural edit and
    /// one unchanged re-check, in seeded order: a request's cost depends
    /// on its kind, so a mix left to chance would move the median.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> EditRequest {
        if self.pending.is_empty() {
            self.pending =
                vec![EditKind::Body, EditKind::Body, EditKind::Structural, EditKind::Unchanged];
            self.rng.shuffle(&mut self.pending);
        }
        let kind = self.pending.pop().expect("refilled above");
        match kind {
            EditKind::Body => {
                // Only fully proven chains are annotated in every
                // declaration, so only their bodies can change without
                // touching the signature.
                let eligible: Vec<usize> = (0..self.base.len())
                    .filter(|&i| {
                        let e = self.unit(i).expected;
                        e.check_sites > 0 && e.proven_sites == e.check_sites
                    })
                    .collect();
                if eligible.is_empty() {
                    return self.current(EditKind::Unchanged);
                }
                let i = *self.rng.pick(&eligible);
                self.state[i].1 = !self.state[i].1;
            }
            EditKind::Structural => {
                let i = self.rng.below(self.base.len() as u64) as usize;
                self.state[i] = (!self.state[i].0, false);
            }
            EditKind::Unchanged => {}
        }
        self.current(kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_differ_per_salt_and_seed() {
        assert_ne!(derive_seed(1, SALT_BATCH), derive_seed(1, SALT_MEGAFILE));
        assert_ne!(derive_seed(1, SALT_BATCH), derive_seed(2, SALT_BATCH));
    }

    #[test]
    fn every_seed_draws_the_same_shape_mix() {
        let shapes = |seed| -> Vec<Vec<(usize, usize, usize, usize)>> {
            corpus(seed, 1_200, 2)
                .cases
                .iter()
                .map(|c| {
                    let mut s: Vec<_> = c
                        .units
                        .iter()
                        .map(|u| {
                            let e = u.expected;
                            (e.check_sites, e.proven_sites, e.residual_sites, e.nonlinear_sites)
                        })
                        .collect();
                    s.sort_unstable();
                    s
                })
                .collect()
        };
        assert_eq!(shapes(1), shapes(2));
        assert_eq!(shapes(1)[0], shapes(1)[1], "files share the mix");
        assert_ne!(corpus(1, 1_200, 2).cases[0].source, corpus(2, 1_200, 2).cases[0].source);
        assert_eq!(recipe().len(), 50);
    }

    #[test]
    fn body_edits_keep_the_stamp_and_structural_edits_follow_the_units() {
        let mut script = EditScript::new(5, 120);
        let first = script.current(EditKind::Unchanged);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..40 {
            let r = script.next();
            seen.insert(r.kind);
            if r.kind == EditKind::Body {
                assert_ne!(r.source, first.source);
            }
        }
        assert_eq!(seen.len(), 3, "all three kinds occur: {seen:?}");
    }
}
