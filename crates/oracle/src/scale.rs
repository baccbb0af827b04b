//! Scale-corpus generator: mega DML programs with stamped verdict counts.
//!
//! The fuzz templates in [`crate::program`] exercise the pipeline on
//! single-function programs of a handful of obligations — the paper's
//! Table 2/3 regime. The service roadmap cares about a different regime:
//! 10k–100k obligations per compile batch, where the parallel solve and
//! the canonical verdict cache either pay off or fall over. This module
//! generates that workload.
//!
//! A corpus is a set of files, each a long sequence of *units* drawn from
//! four shapes modelled on real partially-annotated codebases:
//!
//! * **Proven chain** — a call chain of annotated functions, every level
//!   indexing under a guard the solver proves (`sub(v, i)` under
//!   `i < n`). All sites eliminate.
//! * **Residual chain** — the same chain with every annotation stripped:
//!   phase-2 has no index information, every site keeps its runtime
//!   check (`Unknown(PossiblyFalsifiable)`).
//! * **Mixed chain** — annotated wrappers over an annotation-stripped
//!   leaf: the wrappers' own sites eliminate, the leaf's site stays.
//! * **Nonlinear leaf** — `sub(v, i * j)` under a guard that implies
//!   safety but only nonlinearly (the paper's §3.2 rejection):
//!   `Unknown(Nonlinear)` residual.
//!
//! Every unit's obligation count and per-site verdicts are statically
//! known (a chain of depth `d` generates exactly `3d − 1` obligations, a
//! nonlinear leaf exactly 2 — pinned by tests), so each generated case is
//! stamped with [`ExpectedCounts`] and doubles as a correctness oracle:
//! a compile whose proven/residual/nonlinear site counts differ from the
//! stamp is a divergence, whatever the configuration.
//!
//! The generator is deterministic per seed and splits the corpus across
//! files: the multi-file shape is both the realistic multi-tenant
//! workload and what `dmlc check --jobs N` fans out. Constraint
//! generation is linear in single-file size (see `EXPERIMENTS.md`), so
//! the split is about the workload's shape, not about generation cost.

use crate::rng::OracleRng;
use dml::UnknownReason;

/// Verdict counts a generated case is expected to produce, by site.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExpectedCounts {
    /// Total checking-primitive sites (`proven + residual`).
    pub check_sites: usize,
    /// Sites whose bound obligations the solver must prove (eliminated).
    pub proven_sites: usize,
    /// Sites that must keep their runtime check.
    pub residual_sites: usize,
    /// Subset of `residual_sites` left for a nonlinear conclusion.
    pub nonlinear_sites: usize,
}

impl ExpectedCounts {
    fn absorb(&mut self, other: &ExpectedCounts) {
        self.check_sites += other.check_sites;
        self.proven_sites += other.proven_sites;
        self.residual_sites += other.residual_sites;
        self.nonlinear_sites += other.nonlinear_sites;
    }
}

impl std::fmt::Display for ExpectedCounts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} site(s): {} proven, {} residual ({} nonlinear)",
            self.check_sites, self.proven_sites, self.residual_sites, self.nonlinear_sites
        )
    }
}

/// One generated unit: a short self-contained group of declarations with
/// statically known obligation and verdict counts.
#[derive(Debug, Clone)]
pub struct ScaleUnit {
    /// DML source of the unit's declarations.
    pub source: String,
    /// Obligations (constraints) the unit generates.
    pub obligations: usize,
    /// Stamped per-site verdicts.
    pub expected: ExpectedCounts,
}

/// One generated file of the corpus.
#[derive(Debug, Clone)]
pub struct ScaleCase {
    /// Deterministic case name (`scale-s<seed>-f<index>`).
    pub name: String,
    /// Full DML source (the concatenated units).
    pub source: String,
    /// The units, in emission order (the shrinking granularity).
    pub units: Vec<ScaleUnit>,
    /// Obligations the whole file generates.
    pub obligations: usize,
    /// Stamped verdict counts for the whole file.
    pub expected: ExpectedCounts,
}

impl ScaleCase {
    /// Rebuilds a case from a subset of its units (used by the shrinker
    /// and the corpus assembler); counts are re-derived from the units.
    pub fn from_units(name: String, units: Vec<ScaleUnit>) -> ScaleCase {
        let mut source = String::new();
        let mut obligations = 0;
        let mut expected = ExpectedCounts::default();
        for u in &units {
            source.push_str(&u.source);
            obligations += u.obligations;
            expected.absorb(&u.expected);
        }
        ScaleCase { name, source, units, obligations, expected }
    }
}

/// A generated corpus: the files plus corpus-wide totals.
#[derive(Debug, Clone)]
pub struct ScaleCorpus {
    /// The generated files.
    pub cases: Vec<ScaleCase>,
    /// Total obligations across the corpus.
    pub obligations: usize,
    /// Total stamped verdict counts across the corpus.
    pub expected: ExpectedCounts,
}

/// Scale-corpus configuration. `Default` is the 1k-obligation preset.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// RNG seed; identical configs generate identical corpora.
    pub seed: u64,
    /// Total obligations to generate across the corpus (hit within one
    /// unit's worth, ≤ `3 · max_depth − 1`).
    pub target_obligations: usize,
    /// Number of files to split the corpus over, as a build tree would
    /// be; the files are what `dmlc check --jobs N` spreads over workers.
    pub files: usize,
    /// Relative unit-shape weights: proven chain.
    pub proven_weight: u32,
    /// Relative unit-shape weights: annotation-stripped residual chain.
    pub residual_weight: u32,
    /// Relative unit-shape weights: annotated-over-stripped mixed chain.
    pub mixed_weight: u32,
    /// Relative unit-shape weights: nonlinear leaf.
    pub nonlinear_weight: u32,
    /// Maximum call-chain depth (inclusive; chains are 2..=max_depth).
    pub max_depth: usize,
}

impl ScaleConfig {
    /// A corpus of roughly `target_obligations` obligations with the
    /// default shape mix, split over one file per 1 200 obligations
    /// (rounded down, clamped to 1..=64 files).
    pub fn new(seed: u64, target_obligations: usize) -> ScaleConfig {
        ScaleConfig {
            seed,
            target_obligations,
            files: (target_obligations / 1200).clamp(1, 64),
            proven_weight: 5,
            residual_weight: 2,
            mixed_weight: 2,
            nonlinear_weight: 1,
            max_depth: 6,
        }
    }

    /// Overrides the file count.
    pub fn files(mut self, files: usize) -> ScaleConfig {
        self.files = files.max(1);
        self
    }
}

impl Default for ScaleConfig {
    fn default() -> ScaleConfig {
        ScaleConfig::new(42, 1_000)
    }
}

/// The guard families provable chains draw from: (guard, valid index
/// expressions under that guard). Every level of a chain shares the
/// chain's guard, so the wrapper-to-callee guard obligation is the
/// identity implication and the whole chain stays proven.
const PROVEN_GUARDS: [(&str, &[&str]); 3] =
    [("i < n", &["i"]), ("i + 1 < n", &["i", "i + 1"]), ("n > 0", &["0"])];

/// Obligations generated by a call chain of depth `d` (pinned by the
/// `unit_obligation_formulas_hold` test): one bound obligation per `sub`
/// site plus two per declaration boundary.
fn chain_obligations(depth: usize) -> usize {
    3 * depth - 1
}

/// Obligations generated by a nonlinear leaf unit.
const NONLINEAR_OBLIGATIONS: usize = 2;

/// Emits an annotated, fully provable call chain of `depth` levels.
fn proven_chain(rng: &mut OracleRng, prefix: &str, depth: usize) -> ScaleUnit {
    let (guard, idxs) = *rng.pick(&PROVEN_GUARDS);
    let mut src = String::new();
    for k in 0..depth {
        let idx = *rng.pick(idxs);
        let body = if k == 0 {
            format!("sub(v, {idx})")
        } else {
            format!("{prefix}_{}(v, i) + sub(v, {idx})", k - 1)
        };
        src.push_str(&format!(
            "fun {prefix}_{k}(v, i) = {body}\n\
             where {prefix}_{k} <| {{n:nat, i:nat | {guard}}} int array(n) * int(i) -> int\n\n"
        ));
    }
    ScaleUnit {
        source: src,
        obligations: chain_obligations(depth),
        expected: ExpectedCounts {
            check_sites: depth,
            proven_sites: depth,
            ..ExpectedCounts::default()
        },
    }
}

/// Emits the same chain shape with every annotation stripped: no index
/// information reaches phase 2, every site keeps its check.
fn residual_chain(prefix: &str, depth: usize) -> ScaleUnit {
    let mut src = String::new();
    for k in 0..depth {
        let body = if k == 0 {
            "sub(v, i)".to_string()
        } else {
            format!("{prefix}_{}(v, i) + sub(v, i)", k - 1)
        };
        src.push_str(&format!("fun {prefix}_{k}(v, i) = {body}\n\n"));
    }
    ScaleUnit {
        source: src,
        obligations: chain_obligations(depth),
        expected: ExpectedCounts {
            check_sites: depth,
            residual_sites: depth,
            ..ExpectedCounts::default()
        },
    }
}

/// Emits annotated wrappers over an annotation-stripped leaf: the
/// wrappers' own sites eliminate, the leaf's site stays residual.
fn mixed_chain(prefix: &str, depth: usize) -> ScaleUnit {
    let mut src = format!("fun {prefix}_0(v, i) = sub(v, i)\n\n");
    for k in 1..depth {
        src.push_str(&format!(
            "fun {prefix}_{k}(v, i) = {prefix}_{}(v, i) + sub(v, i)\n\
             where {prefix}_{k} <| {{n:nat, i:nat | i < n}} int array(n) * int(i) -> int\n\n",
            k - 1
        ));
    }
    ScaleUnit {
        source: src,
        obligations: chain_obligations(depth),
        expected: ExpectedCounts {
            check_sites: depth,
            proven_sites: depth - 1,
            residual_sites: 1,
            ..ExpectedCounts::default()
        },
    }
}

/// Emits a nonlinear leaf: the guard implies safety (`i < 4 ∧ j < 4 ∧
/// n ≥ 16 ⊃ i·j < n`) but only through a product of variables, which the
/// linear solver rejects per the paper's §3.2.
fn nonlinear_leaf(prefix: &str) -> ScaleUnit {
    let src = format!(
        "fun {prefix}(v, i, j) = sub(v, i * j)\n\
         where {prefix} <| {{n:nat, i:nat, j:nat | i < 4 && j < 4 && n >= 16}} \
         int array(n) * int(i) * int(j) -> int\n\n"
    );
    ScaleUnit {
        source: src,
        obligations: NONLINEAR_OBLIGATIONS,
        expected: ExpectedCounts {
            check_sites: 1,
            residual_sites: 1,
            nonlinear_sites: 1,
            ..ExpectedCounts::default()
        },
    }
}

/// Generates one corpus file worth roughly `target` obligations.
fn gen_case(rng: &mut OracleRng, name: String, target: usize, cfg: &ScaleConfig) -> ScaleCase {
    let weights = [
        cfg.proven_weight as u64,
        cfg.residual_weight as u64,
        cfg.mixed_weight as u64,
        cfg.nonlinear_weight as u64,
    ];
    let total_weight: u64 = weights.iter().sum::<u64>().max(1);
    let mut units = Vec::new();
    let mut obligations = 0usize;
    let mut unit_id = 0usize;
    while obligations < target {
        let mut roll = rng.below(total_weight);
        let mut kind = 3;
        for (i, w) in weights.iter().enumerate() {
            if roll < *w {
                kind = i;
                break;
            }
            roll -= w;
        }
        let depth = rng.int_in(2, cfg.max_depth as i64) as usize;
        let unit = match kind {
            0 => proven_chain(rng, &format!("p{unit_id}"), depth),
            1 => residual_chain(&format!("r{unit_id}"), depth),
            2 => mixed_chain(&format!("m{unit_id}"), depth),
            _ => nonlinear_leaf(&format!("q{unit_id}")),
        };
        obligations += unit.obligations;
        units.push(unit);
        unit_id += 1;
    }
    ScaleCase::from_units(name, units)
}

/// Generates the corpus described by `cfg`. Deterministic: identical
/// configs yield byte-identical sources and identical stamps.
pub fn gen_scale_corpus(cfg: &ScaleConfig) -> ScaleCorpus {
    let mut rng = OracleRng::new(cfg.seed ^ 0x5ca1_e000_0000_0000);
    let files = cfg.files.max(1);
    let per_file = cfg.target_obligations.div_ceil(files).max(1);
    let mut cases = Vec::with_capacity(files);
    let mut obligations = 0usize;
    let mut expected = ExpectedCounts::default();
    for f in 0..files {
        let case = gen_case(&mut rng, format!("scale-s{}-f{f}", cfg.seed), per_file, cfg);
        obligations += case.obligations;
        expected.absorb(&case.expected);
        cases.push(case);
    }
    ScaleCorpus { cases, obligations, expected }
}

/// Checks a compiled program against a case's stamped counts. `Err`
/// carries a deterministic description of the first mismatch.
pub fn verify_scale_case(
    compiled: &dml::Compiled,
    expected: &ExpectedCounts,
) -> Result<(), String> {
    let proven = compiled.proven_sites().len();
    let residuals = compiled.residual_checks();
    let residual = residuals.len();
    let nonlinear =
        residuals.iter().filter(|r| matches!(r.reason, UnknownReason::Nonlinear(_))).count();
    let actual = ExpectedCounts {
        check_sites: proven + residual,
        proven_sites: proven,
        residual_sites: residual,
        nonlinear_sites: nonlinear,
    };
    if actual != *expected {
        return Err(format!("expected {expected}; got {actual}"));
    }
    if compiled.stats().constraints == 0 {
        return Err("compile generated no constraints".into());
    }
    Ok(())
}

/// Greedily shrinks a mismatching case at unit granularity: repeatedly
/// tries dropping chunks of units while `still_fails` holds on the
/// rebuilt case. The 1998 paper's programs fit on a page; a divergence
/// repro should too.
pub fn minimize_scale_case(
    case: &ScaleCase,
    mut still_fails: impl FnMut(&ScaleCase) -> bool,
) -> ScaleCase {
    let mut best = case.clone();
    let mut chunk = (best.units.len() / 2).max(1);
    loop {
        let mut shrunk = false;
        let mut start = 0;
        while start < best.units.len() && best.units.len() > 1 {
            let end = (start + chunk).min(best.units.len());
            if end - start == best.units.len() {
                // Never drop every unit.
                break;
            }
            let mut units = best.units.clone();
            units.drain(start..end);
            let candidate = ScaleCase::from_units(best.name.clone(), units);
            if still_fails(&candidate) {
                best = candidate;
                shrunk = true;
                // Retry the same window: the next chunk slid into it.
            } else {
                start = end;
            }
        }
        if chunk > 1 {
            chunk /= 2;
        } else if !shrunk {
            return best;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dml::Compiler;

    #[test]
    fn unit_obligation_formulas_hold() {
        // The static per-unit obligation counts (`3d − 1` per chain, 2
        // per nonlinear leaf) are what lets a config target exact
        // obligation totals; pin them against the real pipeline.
        let mut rng = OracleRng::new(7);
        for depth in 2..=5 {
            for unit in [
                proven_chain(&mut rng, "p0", depth),
                residual_chain("r0", depth),
                mixed_chain("m0", depth),
            ] {
                let c = Compiler::new().workers(1).compile(&unit.source).expect("unit compiles");
                assert_eq!(
                    c.stats().constraints,
                    unit.obligations,
                    "depth {depth} unit:\n{}",
                    unit.source
                );
                verify_scale_case(&c, &unit.expected).expect("unit stamp holds");
            }
        }
        let leaf = nonlinear_leaf("q0");
        let c = Compiler::new().workers(1).compile(&leaf.source).expect("leaf compiles");
        assert_eq!(c.stats().constraints, leaf.obligations);
        verify_scale_case(&c, &leaf.expected).expect("leaf stamp holds");
    }

    #[test]
    fn corpus_is_deterministic_per_seed() {
        let cfg = ScaleConfig::new(11, 400).files(3);
        let a = gen_scale_corpus(&cfg);
        let b = gen_scale_corpus(&cfg);
        assert_eq!(a.cases.len(), b.cases.len());
        for (ca, cb) in a.cases.iter().zip(&b.cases) {
            assert_eq!(ca.source, cb.source);
            assert_eq!(ca.expected, cb.expected);
        }
        let c = gen_scale_corpus(&ScaleConfig::new(12, 400).files(3));
        assert_ne!(a.cases[0].source, c.cases[0].source, "different seeds differ");
    }

    #[test]
    fn corpus_hits_the_obligation_target() {
        for target in [200, 1_000] {
            let corpus = gen_scale_corpus(&ScaleConfig::new(5, target));
            // Each file overshoots by at most one unit (≤ 3·max_depth − 1).
            let slack = corpus.cases.len() * (3 * 6 - 1);
            assert!(corpus.obligations >= target, "{} < {target}", corpus.obligations);
            assert!(
                corpus.obligations <= target + slack,
                "{} > {target} + {slack}",
                corpus.obligations
            );
            assert_eq!(
                corpus.expected.check_sites,
                corpus.expected.proven_sites + corpus.expected.residual_sites
            );
            assert!(corpus.expected.nonlinear_sites > 0, "mix includes nonlinear units");
        }
    }

    #[test]
    fn stamped_counts_match_the_compiler() {
        let corpus = gen_scale_corpus(&ScaleConfig::new(3, 240).files(2));
        let mut total = 0usize;
        for case in &corpus.cases {
            let c = Compiler::new().workers(1).compile(&case.source).expect("case elaborates");
            verify_scale_case(&c, &case.expected).unwrap_or_else(|e| panic!("{}: {e}", case.name));
            assert_eq!(c.stats().constraints, case.obligations, "{}", case.name);
            total += c.stats().constraints;
        }
        assert_eq!(total, corpus.obligations);
    }

    #[test]
    fn minimizer_shrinks_to_the_failing_unit() {
        let corpus = gen_scale_corpus(&ScaleConfig::new(9, 300).files(1));
        let case = &corpus.cases[0];
        assert!(case.units.len() > 4, "enough units to shrink");
        // Pretend the last nonlinear unit is the culprit: the minimized
        // case must still contain one and shed most of the rest.
        let has_nonlinear = |c: &ScaleCase| c.units.iter().any(|u| u.expected.nonlinear_sites > 0);
        assert!(has_nonlinear(case), "corpus mix includes a nonlinear unit");
        let small = minimize_scale_case(case, has_nonlinear);
        assert!(has_nonlinear(&small));
        assert!(small.units.len() <= 2, "shrunk to {} units", small.units.len());
    }
}
