//! Check accounting: how many bound/tag checks were executed vs eliminated.

use std::fmt;

/// Counters for dynamic checks, reproducing the "checks eliminated" columns
/// of the paper's Tables 2 and 3.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Array bound checks actually executed (checked primitives, or
    /// unproven sites in eliminated mode).
    pub array_checks_executed: u64,
    /// Array bound checks skipped because the site was proven safe.
    pub array_checks_eliminated: u64,
    /// The subset of executed array checks that are *residual*: the solver
    /// could not prove the site in eliminated mode, so its check stayed in
    /// the compiled program (graceful degradation). Explicitly-checked
    /// `*CK` primitives are not residual — they were never candidates for
    /// elimination.
    pub array_checks_residual: u64,
    /// List tag checks executed.
    pub tag_checks_executed: u64,
    /// List tag checks eliminated.
    pub tag_checks_eliminated: u64,
    /// The subset of executed tag checks that are residual (see
    /// [`Counters::array_checks_residual`]).
    pub tag_checks_residual: u64,
}

impl Counters {
    /// Fresh zeroed counters.
    pub fn new() -> Counters {
        Counters::default()
    }

    /// Total checks executed (array + tag).
    pub fn executed(&self) -> u64 {
        self.array_checks_executed + self.tag_checks_executed
    }

    /// Total checks eliminated (array + tag).
    pub fn eliminated(&self) -> u64 {
        self.array_checks_eliminated + self.tag_checks_eliminated
    }

    /// Total residual checks executed (array + tag).
    pub fn residual(&self) -> u64 {
        self.array_checks_residual + self.tag_checks_residual
    }
}

impl fmt::Display for Counters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "array checks: {} executed / {} eliminated; tag checks: {} executed / {} eliminated",
            self.array_checks_executed,
            self.array_checks_eliminated,
            self.tag_checks_executed,
            self.tag_checks_eliminated
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals() {
        let c = Counters {
            array_checks_executed: 3,
            array_checks_eliminated: 5,
            array_checks_residual: 2,
            tag_checks_executed: 1,
            tag_checks_eliminated: 2,
            tag_checks_residual: 1,
        };
        assert_eq!(c.executed(), 4);
        assert_eq!(c.eliminated(), 7);
        assert_eq!(c.residual(), 3);
    }
}
