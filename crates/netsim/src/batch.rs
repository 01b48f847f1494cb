//! Leftover batch-statistics API: the event loop dispatches one event at a
//! time ([`crate::Simulation::step`]), so there are no batches to count.
//!
//! These two functions stay only because the repository benchmark
//! (`ysinm-bench/src/main.rs`) still calls them around its traced pass.
//! Under its rule that an unexercised layer reads 0, its
//! `netsim.batch.mean_size` metric reads 0 until the benchmark drops it;
//! then this module goes too.

/// Always `(0, 0, ())`: no batches and no batched events. The benchmark
/// destructures a three-element tuple.
pub fn stats() -> (u64, u64, ()) {
    (0, 0, ())
}

/// No-op: there are no statistics to zero.
pub fn reset_stats() {}
