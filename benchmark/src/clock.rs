//! The one place the benchmark reads the wall clock.
//!
//! The repository's own lint (`rl_lint`, rule `wall-clock`) keeps
//! `Instant::now` out of library code so the simulator stays
//! deterministic. Measuring time is what a benchmark is for; it does so
//! here, once, with the exemption written down.

use std::time::Instant;

#[inline]
pub fn now() -> Instant {
    // rl-lint: allow(wall-clock) — the benchmark is where time is measured
    Instant::now()
}
