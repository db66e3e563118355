//! Error type shared by the simulation substrate.

use std::fmt;

/// Errors raised by the hardware/fluid substrate.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A configuration asked for more cores than the node owns.
    CoreBudgetExceeded {
        /// Cores requested across all co-located applications.
        requested: u32,
        /// Cores physically present on the node.
        available: u32,
    },
    /// A demand vector contained a non-finite or negative value.
    InvalidDemand(&'static str),
    /// The AMVA fixed point failed to converge within the iteration budget.
    NoConvergence {
        /// Iterations performed before giving up.
        iterations: usize,
        /// Residual at the last iteration.
        residual: f64,
    },
    /// A cluster-level request referenced a node that does not exist.
    NoSuchNode(usize),
    /// A fault-injection request referenced a job handle not active on the
    /// node (already finished, or never submitted there).
    NoSuchJob(u64),
    /// The discrete-event loop failed to make progress: more events fired
    /// than the submitted stage work could possibly produce, so the rate
    /// solution must have stalled (e.g. all rates collapsed to zero).
    EventLoopRunaway {
        /// Events processed before the guard tripped.
        events: u64,
        /// Upper bound derived from the submitted stage counts.
        budget: u64,
    },
    /// A time step handed to `advance` was negative, NaN or infinite.
    InvalidTimeStep {
        /// The offending step, simulated seconds.
        dt: f64,
    },
    /// More jobs were submitted to one node simulator than its inline
    /// scratch capacity can hold (the co-location cap, sized well above
    /// the per-node core count — each job needs at least one mapper core).
    ColocationCapExceeded {
        /// Jobs already active on the node.
        active: usize,
        /// Inline scratch capacity.
        cap: usize,
    },
    /// A batched AMVA window was empty, or its lanes differ in class or
    /// station count (a resident window must be shape-uniform).
    InvalidWindow(&'static str),
    /// An internal invariant was violated — a bug surfaced as a typed
    /// error instead of a panic, so library callers stay panic-free.
    Internal(&'static str),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::CoreBudgetExceeded {
                requested,
                available,
            } => write!(
                f,
                "core budget exceeded: requested {requested}, node has {available}"
            ),
            SimError::InvalidDemand(what) => write!(f, "invalid demand: {what}"),
            SimError::NoConvergence {
                iterations,
                residual,
            } => write!(
                f,
                "AMVA failed to converge after {iterations} iterations (residual {residual:.3e})"
            ),
            SimError::EventLoopRunaway { events, budget } => write!(
                f,
                "event-loop runaway: {events} events without completion (budget {budget})"
            ),
            SimError::InvalidTimeStep { dt } => {
                write!(f, "invalid time step: dt = {dt} (must be finite and >= 0)")
            }
            SimError::ColocationCapExceeded { active, cap } => write!(
                f,
                "co-location cap exceeded: {active} jobs already active, scratch capacity {cap}"
            ),
            SimError::NoSuchNode(i) => write!(f, "no such node: {i}"),
            SimError::NoSuchJob(h) => write!(f, "no such active job: handle {h}"),
            SimError::InvalidWindow(what) => write!(f, "invalid AMVA window: {what}"),
            SimError::Internal(what) => write!(f, "internal invariant violated: {what}"),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SimError::CoreBudgetExceeded {
            requested: 9,
            available: 8,
        };
        assert!(e.to_string().contains("requested 9"));
        let e = SimError::NoConvergence {
            iterations: 100,
            residual: 0.5,
        };
        assert!(e.to_string().contains("100"));
    }
}
