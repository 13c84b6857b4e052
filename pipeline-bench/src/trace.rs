//! Timing wrappers the traced run puts around the public pool seams.
//!
//! Tracing lives in the benchmark, not in the crates: the traced run
//! hands `PoolSim::run` these wrappers instead of the bare
//! `StorePolicy` / `Workload`, and times the scheduler and manager calls
//! from outside. The untraced run never constructs them.

use std::cell::Cell;
use std::time::{Duration, Instant};

use chs_pool::{PoolPolicy, Seg, Timeline};

/// A [`PoolPolicy`] that times every `next_interval` call of `inner`.
pub struct TimedPolicy<P> {
    /// The wrapped planner.
    pub inner: P,
    /// Calls made.
    pub calls: u64,
    /// Time spent inside `inner.next_interval`.
    pub busy: Duration,
}

impl<P> TimedPolicy<P> {
    /// Wrap `inner` with zeroed counters.
    pub fn new(inner: P) -> Self {
        TimedPolicy {
            inner,
            calls: 0,
            busy: Duration::ZERO,
        }
    }
}

impl<P: PoolPolicy> PoolPolicy for TimedPolicy<P> {
    fn next_interval(
        &mut self,
        machine: u32,
        age: f64,
        measured_cost_s: f64,
    ) -> chs_pool::Result<f64> {
        let t0 = Instant::now();
        let out = self.inner.next_interval(machine, age, measured_cost_s);
        self.busy += t0.elapsed();
        self.calls += 1;
        out
    }

    fn label(&self) -> String {
        self.inner.label()
    }
}

/// A [`Timeline`] that times every `segment` draw of `inner`.
/// (`Timeline::segment` takes `&self`, hence the cells.)
pub struct TimedTimeline<'a, T> {
    /// The wrapped timeline.
    pub inner: &'a T,
    /// Segments drawn.
    pub calls: Cell<u64>,
    /// Time spent inside `inner.segment`.
    pub busy: Cell<Duration>,
}

impl<'a, T> TimedTimeline<'a, T> {
    /// Wrap `inner` with zeroed counters.
    pub fn new(inner: &'a T) -> Self {
        TimedTimeline {
            inner,
            calls: Cell::new(0),
            busy: Cell::new(Duration::ZERO),
        }
    }
}

impl<T: Timeline> Timeline for TimedTimeline<'_, T> {
    fn segment(&self, machine: u32, index: u32, prev_end: f64) -> Option<Seg> {
        let t0 = Instant::now();
        let out = self.inner.segment(machine, index, prev_end);
        self.busy.set(self.busy.get() + t0.elapsed());
        self.calls.set(self.calls.get() + 1);
        out
    }
}
