//! Error types shared across the STeP crates.

use std::fmt;

/// Convenience result alias for STeP operations.
pub type Result<T> = std::result::Result<T, StepError>;

/// The unit a run deadline is denominated in.
///
/// Both are simulated quantities: a deadline expressed in them fails at
/// exactly the same point of the schedule at any thread or worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeadlineKind {
    /// Simulated cycles (the conservative execution horizon).
    Cycles,
    /// Scheduler rounds (coordination barriers / waves).
    Rounds,
}

impl fmt::Display for DeadlineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeadlineKind::Cycles => write!(f, "cycles"),
            DeadlineKind::Rounds => write!(f, "rounds"),
        }
    }
}

/// Errors raised while building or executing STeP programs.
#[derive(Debug, Clone, PartialEq)]
pub enum StepError {
    /// Producer/consumer stream shapes do not align (build-time check
    /// mirroring the symbolic frontend's verification, §4.1).
    Shape(String),
    /// The stream's data type is not accepted by the operator.
    ElemType(String),
    /// A token stream violated well-formedness (stop-token discipline).
    Malformed(String),
    /// Operator configuration is invalid (e.g. zero tile size).
    Config(String),
    /// Execution-time failure (selector out of range, buffer missing, ...).
    Exec(String),
    /// The dataflow graph made no progress before all nodes finished.
    Deadlock(String),
    /// A caught panic, carrying the panic payload's message. Raised by
    /// layers that isolate panics (`catch_unwind`) so a dying builder
    /// or executor surfaces as a typed error instead of an abort.
    Panicked(String),
    /// The scheduler exceeded its configured round budget
    /// (`SimConfig::max_rounds`) before the graph finished. Carries the
    /// counters at the blow so callers can classify the overrun as
    /// non-retryable and tests can match on it.
    RoundLimit {
        /// The configured round budget.
        limit: u64,
        /// Rounds executed when the budget blew.
        rounds: u64,
        /// Total node fires executed when the budget blew.
        fires: u64,
    },
    /// A per-run deadline expired before the graph finished.
    Deadline {
        /// The unit the deadline was denominated in.
        kind: DeadlineKind,
        /// The configured deadline.
        limit: u64,
        /// The observed value that tripped the deadline.
        at: u64,
    },
}

impl fmt::Display for StepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StepError::Shape(m) => write!(f, "shape mismatch: {m}"),
            StepError::ElemType(m) => write!(f, "element type mismatch: {m}"),
            StepError::Malformed(m) => write!(f, "malformed stream: {m}"),
            StepError::Config(m) => write!(f, "invalid configuration: {m}"),
            StepError::Exec(m) => write!(f, "execution error: {m}"),
            StepError::Deadlock(m) => write!(f, "deadlock: {m}"),
            StepError::Panicked(m) => write!(f, "panicked: {m}"),
            StepError::RoundLimit {
                limit,
                rounds,
                fires,
            } => write!(
                f,
                "round budget exceeded: {rounds} rounds (limit {limit}, {fires} fires)"
            ),
            StepError::Deadline { kind, limit, at } => {
                write!(f, "deadline exceeded: {at} {kind} (limit {limit})")
            }
        }
    }
}

impl std::error::Error for StepError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = StepError::Shape("rank 2 vs 3".into());
        assert_eq!(e.to_string(), "shape mismatch: rank 2 vs 3");
        let e = StepError::Deadlock("node 4 blocked".into());
        assert!(e.to_string().contains("deadlock"));
    }

    #[test]
    fn failure_variants_display_their_counters() {
        let e = StepError::RoundLimit {
            limit: 10,
            rounds: 11,
            fires: 42,
        };
        assert_eq!(
            e.to_string(),
            "round budget exceeded: 11 rounds (limit 10, 42 fires)"
        );
        let e = StepError::Deadline {
            kind: DeadlineKind::Cycles,
            limit: 100,
            at: 128,
        };
        assert_eq!(e.to_string(), "deadline exceeded: 128 cycles (limit 100)");
        assert_eq!(
            StepError::Panicked("boom".into()).to_string(),
            "panicked: boom"
        );
    }
}
