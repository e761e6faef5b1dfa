//! Typed simulation failures.
//!
//! A future change that deadlocks the coherence protocol or corrupts the
//! VSC accounting must fail *loudly and partially*: the run that hit it
//! reports a [`SimError`] with a diagnostic dump, the surrounding sweep
//! keeps going, and the per-cell failure surfaces as a [`CellError`] in
//! `run_grid`'s output instead of poisoning the whole grid.

use crate::config::Variant;

/// A simulation aborted by a runtime safety net instead of completing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The forward-progress watchdog fired: no core retired an
    /// instruction for `window` consecutive cycles (the configured
    /// `livelock_cycle_budget`), or the event queue drained with
    /// unfinished cores.
    Livelock {
        /// Cycle at which the watchdog gave up.
        cycle: u64,
        /// Cycles observed without any instruction retiring.
        window: u64,
        /// Human-readable dump: per-core stall states and outstanding
        /// MSHRs, in-flight L2 fetch counts, link lane backlogs, and
        /// prefetch queue depths.
        diagnostic: String,
        /// The last events from the flight recorder (rendered), oldest
        /// first. Populated from the run's trace when `CMPSIM_TRACE` was
        /// on; otherwise the watchdog arms an emergency recorder for one
        /// extra quiet window so the error still carries the final
        /// event window. Empty only when no events could be captured
        /// (e.g. the event queue drained outright).
        recent_events: Vec<String>,
    },
    /// The opt-in invariant checker (`CMPSIM_CHECK=1`) found corrupted
    /// simulator state.
    InvariantViolation {
        /// Cycle at which the violation was detected.
        cycle: u64,
        /// Which structure failed (e.g. `"l2"`, `"link"`, `"core 3"`).
        subsystem: &'static str,
        /// Description of the violated invariant.
        detail: String,
    },
    /// A fault-recovery budget ran out under an armed chaos plan: a
    /// message (or line) failed every permitted retransmission attempt,
    /// so graceful degradation gives way to an explicit abort.
    FaultBudgetExhausted {
        /// Cycle at which the budget ran out.
        cycle: u64,
        /// The injection site (e.g. `"link-request"`, `"dir-message"`).
        site: &'static str,
        /// Block address of the doomed transfer or probe.
        addr: u64,
        /// Delivery attempts made before giving up.
        attempts: u32,
        /// The last flight-recorder events (rendered, oldest first);
        /// chaos arms a recorder-only trace, so the tail is populated
        /// even when `CMPSIM_TRACE` is off.
        recent_events: Vec<String>,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Livelock { cycle, window, diagnostic, recent_events } => {
                write!(
                    f,
                    "livelock at cycle {cycle}: no instruction retired for {window} cycles\n\
                     {diagnostic}"
                )?;
                if recent_events.is_empty() {
                    write!(f, "\n  (no flight-recorder events captured)")
                } else {
                    write!(f, "\n  last {} flight-recorder events:", recent_events.len())?;
                    for e in recent_events {
                        write!(f, "\n    {e}")?;
                    }
                    Ok(())
                }
            }
            SimError::InvariantViolation { cycle, subsystem, detail } => {
                write!(f, "invariant violation in {subsystem} at cycle {cycle}: {detail}")
            }
            SimError::FaultBudgetExhausted { cycle, site, addr, attempts, recent_events } => {
                write!(
                    f,
                    "fault-recovery budget exhausted at cycle {cycle}: {site} for block \
                     {addr:#x} failed all {attempts} delivery attempts"
                )?;
                if recent_events.is_empty() {
                    write!(f, "\n  (no flight-recorder events captured)")
                } else {
                    write!(f, "\n  last {} flight-recorder events:", recent_events.len())?;
                    for e in recent_events {
                        write!(f, "\n    {e}")?;
                    }
                    Ok(())
                }
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Why one `(workload, variant)` cell of a resilient grid sweep has no
/// result.
#[derive(Debug, Clone, PartialEq)]
pub enum CellError {
    /// The cell's simulation panicked (every permitted attempt).
    Panicked {
        /// Workload of the failed cell.
        workload: &'static str,
        /// Variant of the failed cell.
        variant: Variant,
        /// Rendered panic payload of the last attempt.
        payload: String,
        /// Attempts made (1 + retries).
        attempts: u32,
    },
    /// The cell exceeded the watchdog deadline and was abandoned.
    TimedOut {
        /// Workload of the failed cell.
        workload: &'static str,
        /// Variant of the failed cell.
        variant: Variant,
        /// Milliseconds the cell had been running when abandoned.
        elapsed_ms: u64,
    },
    /// The simulation failed with a typed error (livelock, invariant
    /// violation).
    Sim {
        /// Workload of the failed cell.
        workload: &'static str,
        /// Variant of the failed cell.
        variant: Variant,
        /// The underlying simulation error.
        error: SimError,
    },
    /// The result store holds failure records from earlier runs of this
    /// cell, so the sweep skips it instead of retrying forever. Delete
    /// the store's files for this configuration to try again.
    Quarantined {
        /// Workload of the quarantined cell.
        workload: &'static str,
        /// Variant of the quarantined cell.
        variant: Variant,
        /// Failures recorded in the store before quarantine.
        failures: u32,
    },
}

impl CellError {
    /// The failed cell's workload name.
    pub fn workload(&self) -> &'static str {
        match self {
            CellError::Panicked { workload, .. }
            | CellError::TimedOut { workload, .. }
            | CellError::Sim { workload, .. }
            | CellError::Quarantined { workload, .. } => workload,
        }
    }

    /// The failed cell's variant.
    pub fn variant(&self) -> Variant {
        match self {
            CellError::Panicked { variant, .. }
            | CellError::TimedOut { variant, .. }
            | CellError::Sim { variant, .. }
            | CellError::Quarantined { variant, .. } => *variant,
        }
    }
}

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CellError::Panicked { workload, variant, payload, attempts } => write!(
                f,
                "cell ({workload}, {}) panicked after {attempts} attempt(s): {payload}",
                variant.label()
            ),
            CellError::TimedOut { workload, variant, elapsed_ms } => write!(
                f,
                "cell ({workload}, {}) timed out after {elapsed_ms} ms",
                variant.label()
            ),
            CellError::Sim { workload, variant, error } => {
                write!(f, "cell ({workload}, {}) failed: {error}", variant.label())
            }
            CellError::Quarantined { workload, variant, failures } => write!(
                f,
                "cell ({workload}, {}) quarantined after {failures} failure(s) recorded in \
                 the result store; delete the store's files for this configuration to \
                 retry it",
                variant.label()
            ),
        }
    }
}

impl std::error::Error for CellError {}
