//! Incremental re-checking for the serve session.
//!
//! A re-check whose source is byte-identical to the file's last
//! successful check replays that check's rendered report
//! ([`FileState::replay`]): nothing is parsed, generated or solved.
//!
//! Any other re-check of a file parses it once and fingerprints the
//! program:
//!
//! * a **signature hash** over everything that can leak *across*
//!   declarations — the full text of every non-`fun` declaration and of
//!   every `fun` lacking a `where` annotation (their inferred types are
//!   visible to callers), plus the annotations, names, and quantifier
//!   prefixes of annotated `fun`s (the only part of those callers see);
//! * a per-declaration **text hash** over the declaration's own source
//!   slice.
//!
//! A re-check whose signature hash matches the previous one re-solves only
//! the declarations whose text hash changed: obligations are bucketed to
//! declarations by source position, and unchanged buckets take the
//! previous compile's verdicts positionally (see
//! [`crate::pipeline`]'s `ReusePlan`). This is sound because generation is
//! deterministic — identical declaration text under an identical
//! environment signature re-elaborates to the same constraints up to a
//! shift of fresh-variable ids, i.e. an alpha-renaming, and verdicts are
//! alpha-invariant (the same invariance the canonical verdict cache and
//! the fuzz suite's metamorphic properties rest on). Everything else —
//! signature change, decl count change, per-bucket obligation count
//! mismatch — falls back to a full (cache-assisted) solve.

use super::session::CheckOutcome;
use crate::pipeline::{CompileStats, Compiled, ReusePlan};
use crate::report::CheckReport;
use dml_solver::Verdict;
use dml_syntax::ast::{Decl, Program};
use std::hash::Hasher;

/// What the session remembers about the last successful check of a file.
#[derive(Debug)]
pub(crate) struct FileState {
    /// The checked source. A re-check with byte-identical text replays
    /// this state instead of compiling (see [`FileState::replay`]).
    source: String,
    /// The rendered report below its header lines.
    body: CheckReport,
    fully_verified: bool,
    constraints: usize,
    sig_hash: u64,
    decl_hashes: Vec<u64>,
    /// Collapsed verdicts bucketed per declaration, obligation order.
    verdict_buckets: Vec<Vec<Verdict>>,
}

impl FileState {
    /// The last check's outcome again when `src` is byte-identical to its
    /// source: the stored body under a fresh header whose statistics
    /// describe this request — every obligation reused, nothing generated
    /// or solved. The strings are compared, not hashes, so a replay can
    /// never answer for a different source.
    pub(crate) fn replay(&self, src: &str) -> Option<CheckOutcome> {
        if self.source != src {
            return None;
        }
        let stats = CompileStats {
            constraints: self.constraints,
            obligations_reused: self.constraints,
            ..CompileStats::default()
        };
        Some(CheckOutcome {
            report: self.body.with_header(&stats),
            fully_verified: self.fully_verified,
            incremental: true,
            stats,
        })
    }
}

/// The position-derived fingerprint of one parsed program.
#[derive(Debug, Clone)]
pub(crate) struct Fingerprint {
    pub decl_starts: Vec<usize>,
    pub decl_hashes: Vec<u64>,
    pub sig_hash: u64,
}

/// Fingerprints a parsed program against its source text.
pub(crate) fn fingerprint(src: &str, program: &Program) -> Fingerprint {
    let decl_starts: Vec<usize> = program.decls.iter().map(decl_start).collect();
    let bounds = |i: usize| {
        let start = decl_starts[i].min(src.len());
        let end = decl_starts.get(i + 1).copied().unwrap_or(src.len()).min(src.len());
        &src[start..end.max(start)]
    };
    let decl_hashes: Vec<u64> =
        (0..program.decls.len()).map(|i| fnv(bounds(i).trim().as_bytes())).collect();

    let mut sig = Fnv::new();
    sig.write_usize(program.decls.len());
    for (i, d) in program.decls.iter().enumerate() {
        match d {
            Decl::Fun(fs) if fs.iter().all(|f| f.anno.is_some()) => {
                // Only the quantifier prefix and the annotated scheme are
                // visible to other declarations; clause bodies are not.
                for f in fs {
                    sig.write(f.name.name.as_bytes());
                    for tv in &f.tyvars {
                        sig.write(tv.name.as_bytes());
                    }
                    for q in &f.index_params {
                        sig.write(q.var.name.as_bytes());
                        sig.write(dml_syntax::pretty::sort(&q.sort).as_bytes());
                        if let Some(g) = &q.guard {
                            sig.write(dml_syntax::pretty::iprop(g).as_bytes());
                        }
                    }
                    let anno = f.anno.as_ref().expect("all annotated in this arm");
                    sig.write(dml_syntax::pretty::dtype(anno).as_bytes());
                }
            }
            // Unannotated functions, vals, datatypes, typerefs, asserts,
            // exceptions: their full content leaks (inferred schemes,
            // constructors, refinements), so the whole slice signs.
            _ => sig.write(bounds(i).trim().as_bytes()),
        }
        sig.write_u8(0xfe); // declaration separator
    }
    Fingerprint { decl_starts, decl_hashes, sig_hash: sig.finish() }
}

/// Builds the verdict-reuse plan for recompiling a file whose previous
/// state is `prior`, or `None` when nothing can be reused (signature or
/// decl-count change — a full recompile).
pub(crate) fn plan(current: &Fingerprint, prior: &FileState) -> Option<ReusePlan> {
    if prior.sig_hash != current.sig_hash || prior.decl_hashes.len() != current.decl_hashes.len() {
        return None;
    }
    let reuse: Vec<Option<Vec<Verdict>>> = current
        .decl_hashes
        .iter()
        .zip(&prior.decl_hashes)
        .zip(&prior.verdict_buckets)
        .map(|((new, old), bucket)| (new == old).then(|| bucket.clone()))
        .collect();
    if reuse.iter().all(Option::is_none) {
        return None; // every decl changed — nothing to reuse
    }
    Some(ReusePlan { decl_starts: current.decl_starts.clone(), prior: reuse })
}

/// Captures the state to remember after a successful check of `src`: its
/// report body for replays, and the compile's collapsed verdicts bucketed
/// to the fingerprint's declarations for edited re-checks.
pub(crate) fn remember(
    current: &Fingerprint,
    src: &str,
    compiled: &Compiled,
    body: CheckReport,
) -> FileState {
    let mut verdict_buckets: Vec<Vec<Verdict>> = vec![Vec::new(); current.decl_starts.len()];
    for (ob, verdict) in compiled.obligations() {
        let d = crate::pipeline::bucket_of(&current.decl_starts, ob.site.start as usize);
        if let Some(b) = verdict_buckets.get_mut(d) {
            b.push(verdict.clone());
        }
    }
    FileState {
        source: src.to_string(),
        body,
        fully_verified: compiled.fully_verified(),
        constraints: compiled.stats().constraints,
        sig_hash: current.sig_hash,
        decl_hashes: current.decl_hashes.clone(),
        verdict_buckets,
    }
}

/// The earliest source position at which one of the declaration's
/// obligations can be sited. `Decl::span()` starts at the declaration's
/// *name*, but a `fun{n:nat} f ...` quantifier or `fun('a) f` type
/// variable precedes the name — sites are bucketed by this position, so it
/// must not overshoot any of them.
fn decl_start(d: &Decl) -> usize {
    let base = d.span().start;
    let start = match d {
        Decl::Fun(fs) => fs
            .iter()
            .flat_map(|f| {
                f.tyvars
                    .iter()
                    .map(|t| t.span.start)
                    .chain(f.index_params.iter().map(|q| q.var.span.start))
                    .chain([f.name.span.start])
            })
            .min()
            .unwrap_or(base),
        Decl::Val(v) => v.span.start,
        _ => base,
    };
    start as usize
}

/// FNV-1a: these hashes live only in memory, but a fixed, well-understood
/// hash keeps the incremental layer independent of std's unstable
/// `DefaultHasher`.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

fn fnv(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> Program {
        dml_syntax::parse_program(src).expect("parses")
    }

    const TWO_FUNS: &str = "\
fun first(v) = sub(v, 0)
where first <| {n:nat | n > 0} int array(n) -> int

fun second(v) = sub(v, 1)
where second <| {n:nat | n > 1} int array(n) -> int
";

    #[test]
    fn body_edit_changes_one_decl_hash_and_keeps_sig() {
        let edited = TWO_FUNS.replace("sub(v, 1)", "sub(v, 0)");
        let a = fingerprint(TWO_FUNS, &parse(TWO_FUNS));
        let b = fingerprint(&edited, &parse(&edited));
        assert_eq!(a.sig_hash, b.sig_hash, "annotated bodies do not sign");
        assert_eq!(a.decl_hashes[0], b.decl_hashes[0]);
        assert_ne!(a.decl_hashes[1], b.decl_hashes[1]);
    }

    #[test]
    fn annotation_edit_changes_the_signature() {
        let edited = TWO_FUNS.replace("n > 1", "n > 2");
        let a = fingerprint(TWO_FUNS, &parse(TWO_FUNS));
        let b = fingerprint(&edited, &parse(&edited));
        assert_ne!(a.sig_hash, b.sig_hash, "annotations are cross-decl visible");
    }

    #[test]
    fn unannotated_fun_body_signs() {
        let src = "fun helper(x) = x + 1\n\nfun use_it(y) = helper(y)\n";
        let edited = src.replace("x + 1", "x + 2");
        let a = fingerprint(src, &parse(src));
        let b = fingerprint(&edited, &parse(&edited));
        assert_ne!(a.sig_hash, b.sig_hash, "inferred types leak to callers");
    }

    #[test]
    fn whitespace_only_shift_keeps_decl_hashes() {
        let shifted = format!("\n\n{TWO_FUNS}");
        let a = fingerprint(TWO_FUNS, &parse(TWO_FUNS));
        let b = fingerprint(&shifted, &parse(&shifted));
        assert_eq!(a.sig_hash, b.sig_hash);
        assert_eq!(a.decl_hashes, b.decl_hashes, "trimmed slices are offset-immune");
        assert_ne!(a.decl_starts, b.decl_starts);
    }

    #[test]
    fn plan_reuses_only_unchanged_decls() {
        let edited = TWO_FUNS.replace("sub(v, 1)", "sub(v, 0)");
        let a = fingerprint(TWO_FUNS, &parse(TWO_FUNS));
        let b = fingerprint(&edited, &parse(&edited));
        let state = FileState {
            source: TWO_FUNS.to_string(),
            body: CheckReport { text: String::new(), ok: true },
            fully_verified: true,
            constraints: 4,
            sig_hash: a.sig_hash,
            decl_hashes: a.decl_hashes.clone(),
            verdict_buckets: vec![vec![Verdict::Proven; 2], vec![Verdict::Proven; 2]],
        };
        let plan = plan(&b, &state).expect("sig unchanged");
        assert!(plan.prior[0].is_some(), "decl 0 untouched");
        assert!(plan.prior[1].is_none(), "decl 1 edited");
    }
}
