//! Phase-scoped spans with per-thread aggregation.
//!
//! [`span`] wraps a closure in a named measurement frame. On exit the
//! frame's wall-clock time and
//! [`OpsReport`](dlr_curve::counters::OpsReport) delta are folded into a
//! thread-local table; when the *outermost* span on a thread exits, the
//! table is merged into the process-wide registry behind a single mutex.
//! Nested spans therefore cost two `Instant::now()` calls and a
//! thread-local map update — the global lock is touched once per top-level
//! protocol operation, not once per span.
//!
//! Frames unwind-safely: the bookkeeping lives in a drop guard, so a panic
//! inside a span (e.g. a failing assertion in a test) still pops the frame
//! and leaves the stack consistent.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use dlr_curve::counters;
use std::sync::{Mutex, PoisonError};

use crate::report::SpanStats;

/// Process-wide aggregated span table. Keys are the static span names.
static GLOBAL: Mutex<BTreeMap<&'static str, SpanStats>> = Mutex::new(BTreeMap::new());

struct Frame {
    name: &'static str,
    start: Instant,
    ops_before: counters::OpsReport,
    /// Nanoseconds spent in directly-nested child spans.
    child_ns: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
    static LOCAL: RefCell<BTreeMap<&'static str, SpanStats>> =
        const { RefCell::new(BTreeMap::new()) };
}

/// Run `f` inside a named span, recording its wall-clock time and the
/// group operations it performs (on this thread).
///
/// Names are dotted paths (`"dec.p1.start"`); see the crate docs for the
/// taxonomy used by `dlr-core`. Timing and operation counts are inclusive
/// of nested spans.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _guard = SpanGuard::enter(name);
    f()
}

/// RAII frame: entry pushes onto the thread's span stack, drop records.
struct SpanGuard;

impl SpanGuard {
    fn enter(name: &'static str) -> Self {
        STACK.with(|s| {
            s.borrow_mut().push(Frame {
                name,
                start: Instant::now(),
                ops_before: counters::snapshot(),
                child_ns: 0,
            })
        });
        SpanGuard
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let frame = STACK
            .with(|s| s.borrow_mut().pop())
            .expect("span stack underflow");
        let elapsed_ns = frame.start.elapsed().as_nanos() as u64;
        let ops = counters::snapshot() - frame.ops_before;

        let outermost = STACK.with(|s| {
            let mut stack = s.borrow_mut();
            match stack.last_mut() {
                Some(parent) => {
                    parent.child_ns += elapsed_ns;
                    false
                }
                None => true,
            }
        });

        LOCAL.with(|l| {
            let mut table = l.borrow_mut();
            // get_mut-before-insert: steady state is allocation-free.
            if let Some(entry) = table.get_mut(frame.name) {
                entry.count += 1;
                entry.total_ns += elapsed_ns;
                entry.child_ns += frame.child_ns;
                entry.ops += ops;
            } else {
                table.insert(
                    frame.name,
                    SpanStats {
                        count: 1,
                        total_ns: elapsed_ns,
                        child_ns: frame.child_ns,
                        ops,
                    },
                );
            }
        });

        if outermost {
            flush_local();
        }
    }
}

/// Merge this thread's local table into the global registry and clear it.
fn flush_local() {
    LOCAL.with(|l| {
        let mut table = l.borrow_mut();
        if table.is_empty() {
            return;
        }
        let mut global = GLOBAL.lock().unwrap_or_else(PoisonError::into_inner);
        for (name, stats) in std::mem::take(&mut *table) {
            match global.get_mut(name) {
                Some(entry) => entry.merge(&stats),
                None => {
                    global.insert(name, stats);
                }
            }
        }
    });
}

/// Snapshot the process-wide span table (flushing this thread's pending
/// local entries first).
///
/// Other threads' tables flush when their outermost span exits, so after
/// joining worker threads (e.g. `run_pair`) the snapshot is complete.
pub fn snapshot_spans() -> BTreeMap<String, SpanStats> {
    flush_local();
    GLOBAL
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
        .map(|(name, stats)| (name.to_string(), stats.clone()))
        .collect()
}

/// Clear the process-wide registry and this thread's pending entries.
///
/// Does **not** touch `dlr_curve::counters` — spans record deltas, so the
/// two resets are independent.
pub fn reset() {
    LOCAL.with(|l| l.borrow_mut().clear());
    GLOBAL
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry is process-global, so tests that reset it must not
    /// interleave. (`cargo test` runs tests in threads within one process.)
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn nesting_attributes_child_time() {
        let _g = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        reset();
        span("outer", || {
            span("outer.inner", || {
                std::thread::sleep(std::time::Duration::from_millis(2));
            });
        });
        let spans = snapshot_spans();
        let outer = &spans["outer"];
        let inner = &spans["outer.inner"];
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 1);
        // The inner span's full time is the outer span's child time.
        assert_eq!(outer.child_ns, inner.total_ns);
        assert!(outer.total_ns >= inner.total_ns);
        assert_eq!(outer.self_ns(), outer.total_ns - inner.total_ns);
        assert_eq!(inner.child_ns, 0);
    }

    #[test]
    fn repeated_spans_aggregate() {
        let _g = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        reset();
        for _ in 0..5 {
            span("rep", || {});
        }
        assert_eq!(snapshot_spans()["rep"].count, 5);
    }

    #[test]
    fn ops_delta_matches_counters() {
        let _g = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        reset();
        // Pollute the counters before the span: spans must report deltas.
        counters::count_g_op();
        span("opsy", || {
            counters::count_g_pow();
            counters::count_g_pow();
            counters::count_pairing();
        });
        let stats = &snapshot_spans()["opsy"];
        assert_eq!(stats.ops.g_op, 0);
        assert_eq!(stats.ops.g_pow, 2);
        assert_eq!(stats.ops.pairings, 1);
    }

    #[test]
    fn parent_ops_include_children() {
        let _g = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        reset();
        span("par", || {
            counters::count_gt_op();
            span("par.child", counters::count_gt_pow);
        });
        let spans = snapshot_spans();
        assert_eq!(spans["par"].ops.gt_op, 1);
        assert_eq!(spans["par"].ops.gt_pow, 1); // inclusive of child
        assert_eq!(spans["par.child"].ops.gt_pow, 1);
    }

    #[test]
    fn worker_threads_flush_on_outermost_exit() {
        let _g = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        reset();
        let h = std::thread::spawn(|| span("worker", || {}));
        h.join().unwrap();
        assert_eq!(snapshot_spans()["worker"].count, 1);
    }

    #[test]
    fn panic_inside_span_keeps_stack_consistent() {
        let _g = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        reset();
        let result = std::panic::catch_unwind(|| {
            span("boom", || panic!("intentional"));
        });
        assert!(result.is_err());
        // The frame was popped on unwind; a fresh span still works.
        span("after", || {});
        let spans = snapshot_spans();
        assert_eq!(spans["boom"].count, 1);
        assert_eq!(spans["after"].count, 1);
    }
}
