//! What is left of the solver's former worker pool.
//!
//! [`crate::parallel::prove_all`] runs on scoped threads started per
//! call, so there is no pool to warm any more.

/// Does nothing. The solver used to keep a process-wide pool of helper
/// threads and this spawned them ahead of the first compile; no such
/// state exists any more, and the function stays only so callers written
/// against the old API keep building.
pub fn prewarm() {}
