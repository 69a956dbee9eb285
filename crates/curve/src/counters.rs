//! Thread-local operation counters.
//!
//! The efficiency comparisons of the paper (footnote 3: exponentiations and
//! pairings per encryption, device-side work split of §1.1) are reproduced
//! by *counting operations*, not by guessing from formulas. Group
//! implementations in this crate bump these counters; the bench harness
//! resets/snapshots them around each protocol phase.

use core::cell::Cell;

thread_local! {
    static G_OP: Cell<u64> = const { Cell::new(0) };
    static G_POW: Cell<u64> = const { Cell::new(0) };
    static GT_OP: Cell<u64> = const { Cell::new(0) };
    static GT_POW: Cell<u64> = const { Cell::new(0) };
    static PAIRING: Cell<u64> = const { Cell::new(0) };
}

/// A snapshot of the per-thread operation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpsReport {
    /// Source-group multiplications (point additions).
    pub g_op: u64,
    /// Source-group exponentiations (scalar multiplications).
    pub g_pow: u64,
    /// Target-group multiplications.
    pub gt_op: u64,
    /// Target-group exponentiations.
    pub gt_pow: u64,
    /// Pairing evaluations.
    pub pairings: u64,
}

impl OpsReport {
    /// Total exponentiations across both groups.
    pub fn total_pows(&self) -> u64 {
        self.g_pow + self.gt_pow
    }
}

impl core::ops::Add for OpsReport {
    type Output = OpsReport;
    fn add(self, rhs: Self) -> Self {
        OpsReport {
            g_op: self.g_op + rhs.g_op,
            g_pow: self.g_pow + rhs.g_pow,
            gt_op: self.gt_op + rhs.gt_op,
            gt_pow: self.gt_pow + rhs.gt_pow,
            pairings: self.pairings + rhs.pairings,
        }
    }
}

impl core::ops::AddAssign for OpsReport {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl core::ops::Sub for OpsReport {
    type Output = OpsReport;
    fn sub(self, rhs: Self) -> Self {
        OpsReport {
            g_op: self.g_op - rhs.g_op,
            g_pow: self.g_pow - rhs.g_pow,
            gt_op: self.gt_op - rhs.gt_op,
            gt_pow: self.gt_pow - rhs.gt_pow,
            pairings: self.pairings - rhs.pairings,
        }
    }
}

impl core::fmt::Display for OpsReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "G-mul={} G-exp={} GT-mul={} GT-exp={} pairings={}",
            self.g_op, self.g_pow, self.gt_op, self.gt_pow, self.pairings
        )
    }
}

/// Count one source-group multiplication (backend hook).
pub fn count_g_op() {
    G_OP.with(|c| c.set(c.get() + 1));
}
/// Count one source-group exponentiation (backend hook).
pub fn count_g_pow() {
    G_POW.with(|c| c.set(c.get() + 1));
}
/// Count one target-group multiplication (backend hook).
pub fn count_gt_op() {
    GT_OP.with(|c| c.set(c.get() + 1));
}
/// Count one target-group exponentiation (backend hook).
pub fn count_gt_pow() {
    GT_POW.with(|c| c.set(c.get() + 1));
}
/// Count one pairing evaluation (backend hook).
pub fn count_pairing() {
    PAIRING.with(|c| c.set(c.get() + 1));
}

/// Read the current counter values for this thread.
pub fn snapshot() -> OpsReport {
    OpsReport {
        g_op: G_OP.with(Cell::get),
        g_pow: G_POW.with(Cell::get),
        gt_op: GT_OP.with(Cell::get),
        gt_pow: GT_POW.with(Cell::get),
        pairings: PAIRING.with(Cell::get),
    }
}

/// Reset all counters for this thread.
pub fn reset() {
    G_OP.with(|c| c.set(0));
    G_POW.with(|c| c.set(0));
    GT_OP.with(|c| c.set(0));
    GT_POW.with(|c| c.set(0));
    PAIRING.with(|c| c.set(0));
}

/// Run `f` and return its result together with the operations it performed
/// (on this thread).
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, OpsReport) {
    let before = snapshot();
    let out = f();
    let after = snapshot();
    (out, after - before)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_is_relative() {
        count_g_op();
        let (_, report) = measure(|| {
            count_g_pow();
            count_g_pow();
            count_pairing();
        });
        assert_eq!(report.g_op, 0);
        assert_eq!(report.g_pow, 2);
        assert_eq!(report.pairings, 1);
        assert_eq!(report.total_pows(), 2);
    }

    #[test]
    fn display_is_nonempty() {
        let s = snapshot().to_string();
        assert!(s.contains("pairings="));
    }
}
