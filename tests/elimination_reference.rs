//! Reference property test for the check-elimination fold.
//!
//! `dml_elab::eliminate` replaced several folds that each grouped solved
//! obligations by site and applied the fail-safe on their own: the
//! pipeline's proven-site block, `residual_checks`, `site_verdicts`, the
//! inference verifier's site map, and the filters behind the strict-mode
//! listing, the exhaustiveness warnings and the report's ill-typed test.
//! Those folds are kept below, as they were, as the reference; the fold's
//! views must equal them on a few thousand seeded random solved-obligation
//! lists. The lists cover every obligation kind, several guards per site,
//! mixed verdicts at one site and blocked programs — cases the example
//! corpora rarely reach.
//!
//! One invariant of elaboration is kept by the generator: a check site
//! (the span of one primitive application) has one primitive, one check
//! kind and one enclosing function.

use dml_elab::{eliminate, ObKind, Obligation, ResidualCheck};
use dml_index::{Constraint, Prop, UnknownReason, Verdict};
use dml_infer::MiniCheck;
use dml_repro::qc::Rng;
use dml_syntax::Span;
use dml_types::env::CheckKind;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

type Results = [(Obligation, Verdict)];

// ---- The reference folds -------------------------------------------------

/// The pipeline's proven-site block: `(proven_sites, fully_verified)`.
fn ref_pipeline(results: &Results) -> (HashSet<Span>, bool) {
    let non_check_ok = results.iter().all(|(o, r)| {
        o.kind.is_check() || matches!(o.kind, ObKind::Unreachable { .. }) || r.is_proven()
    });
    let mut site_ok: HashMap<Span, bool> = HashMap::new();
    for (o, r) in results {
        if o.kind.is_check() {
            let e = site_ok.entry(o.site).or_insert(true);
            *e &= r.is_proven();
        }
    }
    let proven_sites: HashSet<Span> = if non_check_ok {
        site_ok.iter().filter(|(_, ok)| **ok).map(|(s, _)| *s).collect()
    } else {
        HashSet::new()
    };
    let fully_verified = non_check_ok
        && results
            .iter()
            .all(|(o, r)| matches!(o.kind, ObKind::Unreachable { .. }) || r.is_proven());
    (proven_sites, fully_verified)
}

/// `Compiled::unproven_sites`.
fn ref_unproven_sites(results: &Results, proven_sites: &HashSet<Span>) -> HashSet<Span> {
    let mut all: HashSet<Span> =
        results.iter().filter(|(o, _)| o.kind.is_check()).map(|(o, _)| o.site).collect();
    all.retain(|s| !proven_sites.contains(s));
    all
}

/// `Compiled::match_warnings`.
fn ref_match_warnings(results: &Results) -> Vec<(Span, String)> {
    results
        .iter()
        .filter_map(|(o, r)| match (&o.kind, r) {
            (ObKind::Unreachable { con }, r) if !r.is_proven() => Some((o.site, con.clone())),
            _ => None,
        })
        .collect()
}

/// The strict-mode listing of `Compiler::compile`.
fn ref_strict(results: &Results) -> Vec<(Obligation, Verdict)> {
    let mut unproven: Vec<(Obligation, Verdict)> = results
        .iter()
        .filter(|(o, r)| !matches!(o.kind, ObKind::Unreachable { .. }) && !r.is_proven())
        .cloned()
        .collect();
    unproven.sort_by_key(|(o, _)| (o.site.start, o.site.end));
    unproven
}

/// `report_body`'s ill-typed test.
fn ref_ill_typed(results: &Results) -> bool {
    results
        .iter()
        .filter(|(_, r)| !r.is_proven())
        .any(|(o, _)| !o.kind.is_check() && !matches!(o.kind, ObKind::Unreachable { .. }))
}

/// `dml_elab::residual_checks`.
fn ref_residual_checks(results: &Results) -> Vec<ResidualCheck> {
    let mut out: Vec<ResidualCheck> = Vec::new();
    for (ob, verdict) in results {
        let ObKind::Bound { prim, check } = &ob.kind else { continue };
        if verdict.is_proven() {
            continue;
        }
        if out.iter().any(|r| r.site == ob.site) {
            continue;
        }
        let reason = match verdict {
            Verdict::Unknown(r) => r.clone(),
            _ => UnknownReason::PossiblyFalsifiable,
        };
        out.push(ResidualCheck {
            site: ob.site,
            prim: prim.clone(),
            check: *check,
            in_fun: ob.in_fun.clone(),
            reason,
        });
    }
    out.sort_by_key(|r| (r.site.start, r.site.end));
    out
}

/// `dml_elab::site_verdicts`, as `(site, prim, check, in_fun, goals,
/// proven)` records.
type SiteRecord = (Span, String, CheckKind, String, Vec<usize>, bool);

fn ref_site_verdicts(results: &Results, proven_sites: &HashSet<Span>) -> Vec<SiteRecord> {
    let mut out: Vec<SiteRecord> = Vec::new();
    for (k, (ob, _)) in results.iter().enumerate() {
        let ObKind::Bound { prim, check } = &ob.kind else { continue };
        let goal = k + 1;
        if let Some(existing) = out.iter_mut().find(|s| s.0 == ob.site) {
            existing.4.push(goal);
            continue;
        }
        out.push((
            ob.site,
            prim.clone(),
            *check,
            ob.in_fun.clone(),
            vec![goal],
            proven_sites.contains(&ob.site),
        ));
    }
    out.sort_by_key(|s| (s.0.start, s.0.end));
    out
}

fn verdict_desc(v: &Verdict) -> String {
    match v {
        Verdict::Proven => "proven".to_string(),
        Verdict::Refuted => "refuted".to_string(),
        Verdict::Unknown(r) => format!("unknown ({r})"),
        _ => "undecided".to_string(),
    }
}

/// `dml_infer::verify::check_program`'s site map, after solving: each
/// residual site is described by its first unproven guard.
fn ref_mini_check(results: &Results) -> MiniCheck {
    let mut non_check_ok = true;
    let mut failing_funs = BTreeSet::new();
    let mut site_ok: BTreeMap<Span, (bool, String)> = BTreeMap::new();
    let mut all_check_sites = BTreeSet::new();
    for (ob, verdict) in results {
        if ob.kind.is_check() {
            all_check_sites.insert(ob.site);
            let e = site_ok.entry(ob.site).or_insert_with(|| (true, String::new()));
            if e.0 && !verdict.is_proven() {
                e.0 = false;
                e.1 = format!("{}: {}", ob.kind, verdict_desc(verdict));
            }
        } else if !matches!(ob.kind, ObKind::Unreachable { .. }) && !verdict.is_proven() {
            non_check_ok = false;
            failing_funs.insert(ob.in_fun.clone());
        }
    }
    let (residual_sites, residual_detail) = if non_check_ok {
        let sites: BTreeSet<Span> =
            site_ok.iter().filter(|(_, (ok, _))| !ok).map(|(s, _)| *s).collect();
        let detail =
            site_ok.into_iter().filter(|(_, (ok, _))| !ok).map(|(s, (_, d))| (s, d)).collect();
        (sites, detail)
    } else {
        let detail = all_check_sites
            .iter()
            .map(|s| (*s, "blocked: a non-check obligation failed".to_string()))
            .collect();
        (all_check_sites, detail)
    };
    MiniCheck { non_check_ok, residual_sites, residual_detail, failing_funs }
}

// ---- The generator -------------------------------------------------------

const FUNS: [&str; 3] = ["f", "g", "loop"];
const PRIMS: [(&str, CheckKind); 4] = [
    ("sub", CheckKind::ArrayBound),
    ("update", CheckKind::ArrayBound),
    ("nth", CheckKind::ListTag),
    ("hd", CheckKind::ListTag),
];

fn verdict(rng: &mut Rng, proven_weight: usize) -> Verdict {
    let roll = rng.usize_in(0, proven_weight + 5);
    match roll {
        0 => Verdict::Refuted,
        1 => Verdict::Unknown(UnknownReason::PossiblyFalsifiable),
        2 => Verdict::Unknown(UnknownReason::Nonlinear("i * j".into())),
        3 => Verdict::Unknown(UnknownReason::Blowup),
        4 => Verdict::Unknown(UnknownReason::FuelExhausted),
        5 => Verdict::Unknown(UnknownReason::Deadline),
        _ => Verdict::Proven,
    }
}

/// One solved obligation list: a handful of check sites, each with a
/// fixed primitive and function, interleaved with type and exhaustiveness
/// obligations, some of which share a check site's span.
fn gen_results(rng: &mut Rng) -> Vec<(Obligation, Verdict)> {
    let mut sites: Vec<(Span, usize, usize)> = Vec::new();
    for _ in 0..rng.usize_in(0, 5) {
        let start = rng.usize_in(0, 12) as u32;
        let span = Span { start, end: start + rng.usize_in(1, 3) as u32 };
        if sites.iter().all(|s| s.0 != span) {
            sites.push((span, rng.usize_in(0, PRIMS.len() - 1), rng.usize_in(0, FUNS.len() - 1)));
        }
    }
    let n = rng.usize_in(0, 14);
    (0..n)
        .map(|_| {
            let use_site = !sites.is_empty() && rng.usize_in(0, 2) > 0;
            let (site, kind, fun) = if use_site {
                let &(span, p, f) = rng.pick(&sites);
                let (prim, check) = PRIMS[p];
                (span, ObKind::Bound { prim: prim.into(), check }, FUNS[f])
            } else {
                let span = if !sites.is_empty() && rng.usize_in(0, 3) == 0 {
                    rng.pick(&sites).0
                } else {
                    let start = rng.usize_in(0, 14) as u32;
                    Span { start, end: start + rng.usize_in(1, 3) as u32 }
                };
                let kind = match rng.usize_in(0, 4) {
                    0 => ObKind::DivGuard,
                    1 => ObKind::Guard,
                    2 => ObKind::TypeEq,
                    _ => ObKind::Unreachable { con: rng.pick(&["nil", "EMPTY"]).to_string() },
                };
                (span, kind, *rng.pick(&FUNS))
            };
            // Type obligations fail rarely enough that most lists are not
            // blocked; guards fail often enough that sites mix verdicts.
            let weight = if matches!(kind, ObKind::Bound { .. }) { 6 } else { 30 };
            let ob = Obligation {
                kind,
                site,
                constraint: Constraint::Prop(Prop::True),
                in_fun: fun.to_string(),
            };
            (ob, verdict(rng, weight))
        })
        .collect()
}

// ---- The property --------------------------------------------------------

#[test]
fn the_fold_agrees_with_the_reference_folds() {
    let mut rng = Rng::new(0x5eed_e11d);
    let mut seen = HashMap::<&str, usize>::new();
    for case in 0..4_000 {
        let results = gen_results(&mut rng);
        let e = eliminate(&results);
        let (ref_proven, ref_fully) = ref_pipeline(&results);
        let ctx = || format!("case {case}: {results:#?}");

        let proven: HashSet<Span> = e.sites().iter().filter(|s| s.proven).map(|s| s.site).collect();
        assert_eq!(proven, ref_proven, "proven sites, {}", ctx());
        assert_eq!(e.fully_verified(), ref_fully, "fully verified, {}", ctx());
        let unproven: HashSet<Span> =
            e.sites().iter().filter(|s| !s.proven).map(|s| s.site).collect();
        assert_eq!(unproven, ref_unproven_sites(&results, &ref_proven), "unproven, {}", ctx());
        assert_eq!(e.match_warnings(), ref_match_warnings(&results), "warnings, {}", ctx());
        let strict: Vec<_> = e.unproven(&results).iter().map(|&g| results[g - 1].clone()).collect();
        assert_eq!(strict, ref_strict(&results), "strict listing, {}", ctx());
        assert_eq!(!e.blocking().is_empty(), ref_ill_typed(&results), "ill-typed, {}", ctx());
        assert_eq!(e.residual_checks(), ref_residual_checks(&results), "residual, {}", ctx());
        assert_eq!(
            dml_elab::residual_checks(&results),
            ref_residual_checks(&results),
            "residual_checks view, {}",
            ctx()
        );
        let records: Vec<SiteRecord> = e
            .sites()
            .iter()
            .map(|s| (s.site, s.prim.clone(), s.check, s.in_fun.clone(), s.goals.clone(), s.proven))
            .collect();
        assert_eq!(records, ref_site_verdicts(&results, &ref_proven), "site verdicts, {}", ctx());
        assert_eq!(MiniCheck::from_results(&results), ref_mini_check(&results), "{}", ctx());

        // What the generator reached.
        let blocked = !e.blocking().is_empty();
        *seen.entry(if blocked { "blocked" } else { "unblocked" }).or_default() += 1;
        if blocked && e.sites().iter().any(|s| s.reason.is_none()) {
            *seen.entry("blocked with a proven site").or_default() += 1;
        }
        for s in e.sites() {
            let verdicts: HashSet<&Verdict> = s.goals.iter().map(|&g| &results[g - 1].1).collect();
            if verdicts.len() > 1 {
                *seen.entry("site with mixed verdicts").or_default() += 1;
            }
            let unproven = verdicts.iter().filter(|v| !v.is_proven()).count();
            if unproven > 1 {
                *seen.entry("site with two different failures").or_default() += 1;
            }
        }
        for (ob, _) in &results {
            let kind = match ob.kind {
                ObKind::Bound { .. } => "Bound",
                ObKind::DivGuard => "DivGuard",
                ObKind::Guard => "Guard",
                ObKind::TypeEq => "TypeEq",
                ObKind::Unreachable { .. } => "Unreachable",
            };
            *seen.entry(kind).or_default() += 1;
        }
        if !e.match_warnings().is_empty() {
            *seen.entry("match warning").or_default() += 1;
        }
    }
    for what in [
        "blocked",
        "unblocked",
        "blocked with a proven site",
        "site with mixed verdicts",
        "site with two different failures",
        "Bound",
        "DivGuard",
        "Guard",
        "TypeEq",
        "Unreachable",
        "match warning",
    ] {
        let n = seen.get(what).copied().unwrap_or(0);
        assert!(n >= 50, "the generator reached `{what}` only {n} times: {seen:?}");
    }
}
