//! The benchmark programs of the paper's §4 evaluation, in DML concrete
//! syntax, together with deterministic workload builders.
//!
//! Eight programs appear in Tables 1–3: `bcopy`, `binary search`,
//! `bubble sort`, `matrix mult`, `queen`, `quick sort`, `hanoi towers`,
//! and `list access`. The module set also includes the three expository
//! programs of §2 (`dotprod`, `reverse`, `filter`) and Appendix A's
//! Knuth–Morris–Pratt matcher.
//!
//! Annotation style: as in the paper, inner loops carry `where` clauses
//! whose index bounds are tied to the *enclosing* function's index
//! parameters (e.g. `{n:nat | n <= p}` for `dotprod`'s loop), which is what
//! makes every array access provably in bounds.
//!
//! Each module exposes `SOURCE` (the program text), workload builders
//! producing [`dml_eval::Value`]s, and a reference implementation in Rust
//! used by the correctness tests.

#![forbid(unsafe_code)]

pub mod bcopy;
pub mod bsearch;
pub mod bubblesort;
pub mod dotprod;
pub mod extra;
pub mod filter;
pub mod hanoi;
pub mod kmp;
pub mod listaccess;
pub mod matmult;
pub mod queens;
pub mod quicksort;
pub mod reverse;

/// Metadata for one benchmark program.
#[derive(Debug, Clone, Copy)]
pub struct BenchProgram {
    /// Program name as it appears in the paper's tables.
    pub name: &'static str,
    /// DML source text.
    pub source: &'static str,
    /// Short description of the paper's workload.
    pub workload: &'static str,
}

impl BenchProgram {
    /// Number of source lines (the paper's "code size" column).
    pub fn line_count(&self) -> usize {
        self.source.trim().lines().count()
    }

    /// Number of `where`/`assert`/`typeref`/`:`-annotation occurrences (the
    /// paper's "type annotations" column analogue).
    pub fn annotation_count(&self) -> usize {
        let src = self.source;
        src.matches("where ").count()
            + src.matches("assert ").count()
            + src.matches("typeref ").count()
    }

    /// Number of source lines occupied by annotations (counting each
    /// `where`/`assert` clause's lines).
    pub fn annotation_lines(&self) -> usize {
        let mut count = 0;
        let mut in_anno = false;
        for line in self.source.lines() {
            let t = line.trim_start();
            if t.starts_with("where ") || t.starts_with("assert ") || t.starts_with("typeref ") {
                in_anno = true;
            }
            if in_anno {
                count += 1;
                // An annotation continues while lines end in a connective.
                let end = line.trim_end();
                if !(end.ends_with("->")
                    || end.ends_with("&&")
                    || end.ends_with('*')
                    || end.ends_with('|')
                    || end.ends_with('}'))
                {
                    in_anno = false;
                }
            }
        }
        count
    }
}

/// The eight programs of Tables 1–3, in table order.
pub fn table_programs() -> Vec<BenchProgram> {
    vec![
        bcopy::PROGRAM,
        bsearch::PROGRAM,
        bubblesort::PROGRAM,
        matmult::PROGRAM,
        queens::PROGRAM,
        quicksort::PROGRAM,
        hanoi::PROGRAM,
        listaccess::PROGRAM,
    ]
}

/// All programs including the §2 expository examples and KMP.
pub fn all_programs() -> Vec<BenchProgram> {
    let mut v = vec![dotprod::PROGRAM, reverse::PROGRAM, filter::PROGRAM];
    v.extend(table_programs());
    v.push(kmp::PROGRAM);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use dml_eval::{CheckConfig, Machine};

    #[test]
    fn all_programs_parse() {
        for p in all_programs() {
            dml_syntax::parse_program(p.source)
                .unwrap_or_else(|e| panic!("{} failed to parse:\n{}", p.name, e.render(p.source)));
        }
    }

    #[test]
    fn all_programs_load_into_the_interpreter() {
        for p in all_programs() {
            let ast = dml_syntax::parse_program(p.source).unwrap();
            Machine::load(&ast, CheckConfig::checked())
                .unwrap_or_else(|e| panic!("{} failed to load: {e}", p.name));
        }
    }

    #[test]
    fn metadata_is_sensible() {
        for p in all_programs() {
            assert!(p.line_count() > 3, "{} suspiciously small", p.name);
            assert!(p.annotation_count() >= 1, "{} has no annotations", p.name);
            assert!(p.annotation_lines() >= 1, "{}", p.name);
        }
        assert_eq!(table_programs().len(), 8);
        assert_eq!(all_programs().len(), 12);
    }
}
