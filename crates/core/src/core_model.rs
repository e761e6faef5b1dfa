//! Per-core execution state: the window-based timing model that stands in
//! for the paper's Simics/GEMS out-of-order cores (see DESIGN.md,
//! substitution 1).
//!
//! A core issues instructions at `issue_width` per cycle between the
//! memory events its trace generator produces. Loads that miss allocate
//! window slots; the core keeps issuing (memory-level parallelism) until
//! it hits one of the Table 1 limits — 128 instructions of ROB run-ahead
//! past the oldest incomplete load, 16 outstanding requests, or an
//! instruction-fetch miss (the in-order frontend stalls immediately).

use cmpsim_cache::BlockAddr;
use cmpsim_trace::{CoreGenerator, TimedEvent};

/// Why a core is not currently issuing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wait {
    /// Runnable (or currently running).
    Ready,
    /// Frontend stalled on an instruction-line fill.
    IFetch(BlockAddr),
    /// Stalled on a dependent load's fill (pointer chasing).
    Load(BlockAddr),
    /// ROB run-ahead limit reached; waiting for the oldest load.
    Rob,
    /// All MSHRs in use; waiting for any completion.
    Mshr,
    /// Instruction quota reached.
    Done,
}

/// One processor core's execution state.
#[derive(Debug)]
pub struct Core {
    /// Core id.
    id: u8,
    /// Trace generator for this core.
    pub gen: CoreGenerator,
    /// Local cycle time (≥ the global event time that last ran it).
    pub cycle: u64,
    /// Instructions issued so far.
    pub insts: u64,
    /// Next trace event, if it was produced but could not issue yet.
    pub pending: Option<TimedEvent>,
    /// Outstanding memory requests charged to this core (MSHR budget).
    pub outstanding: usize,
    /// Incomplete loads as `(sequence number, line)`, in issue order.
    /// Sequence numbers are instruction indices, strictly increasing
    /// from one load to the next, so the front is the oldest load (the
    /// ROB limit) and appending keeps the vector sorted.
    loads: Vec<(u64, BlockAddr)>,
    /// Current stall reason.
    pub waiting: Wait,
    /// Instruction count at which this core stops.
    pub quota: u64,
    /// Cycle at which the quota was reached.
    pub finished_at: Option<u64>,
}

impl Core {
    /// A fresh core wrapping `gen`.
    pub fn new(id: u8, gen: CoreGenerator) -> Self {
        Core {
            id,
            gen,
            cycle: 0,
            insts: 0,
            pending: None,
            outstanding: 0,
            loads: Vec::new(),
            waiting: Wait::Ready,
            quota: u64::MAX,
            finished_at: None,
        }
    }

    /// The next trace event, consuming the pending one first.
    pub fn next_event(&mut self) -> TimedEvent {
        self.pending.take().unwrap_or_else(|| self.gen.next_event())
    }

    /// Registers an incomplete load of `line` issued at instruction
    /// `seq`, which must be later than every load tracked so far.
    pub fn track_load(&mut self, seq: u64, line: BlockAddr) {
        debug_assert!(self.loads.last().is_none_or(|&(s, _)| s < seq), "loads out of order");
        self.loads.push((seq, line));
    }

    /// Completes every load waiting on `line` (its fill arrived).
    /// Returns whether there were any.
    pub fn complete_loads(&mut self, line: BlockAddr) -> bool {
        let before = self.loads.len();
        self.loads.retain(|&(_, l)| l != line);
        self.loads.len() != before
    }

    /// Oldest incomplete load's sequence number.
    pub fn oldest_load(&self) -> Option<u64> {
        self.loads.first().map(|&(seq, _)| seq)
    }

    /// How many more instructions may issue before the ROB limit blocks,
    /// given run-ahead limit `rob`.
    pub fn issuable(&self, rob: u64) -> u64 {
        match self.oldest_load() {
            None => u64::MAX,
            Some(oldest) => (oldest + rob).saturating_sub(self.insts),
        }
    }

    /// This core's id.
    pub fn id(&self) -> u8 {
        self.id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpsim_trace::workload;

    fn core() -> Core {
        Core::new(0, CoreGenerator::new(&workload("zeus").unwrap(), 0, 1))
    }

    #[test]
    fn rob_math() {
        let mut c = core();
        assert_eq!(c.issuable(128), u64::MAX, "no outstanding loads");
        c.insts = 100;
        c.track_load(100, BlockAddr(1));
        assert_eq!(c.issuable(128), 128, "can run to seq 228");
        c.insts = 200;
        assert_eq!(c.issuable(128), 28);
        c.insts = 250;
        assert_eq!(c.issuable(128), 0, "blocked");
        assert!(c.complete_loads(BlockAddr(1)));
        assert_eq!(c.issuable(128), u64::MAX);
    }

    #[test]
    fn oldest_load_orders() {
        let mut c = core();
        c.track_load(10, BlockAddr(7));
        c.track_load(30, BlockAddr(9));
        c.track_load(50, BlockAddr(8));
        c.track_load(60, BlockAddr(7));
        assert_eq!(c.oldest_load(), Some(10));
        assert!(c.complete_loads(BlockAddr(7)), "both loads of line 7 complete");
        assert_eq!(c.oldest_load(), Some(30));
        assert!(c.complete_loads(BlockAddr(9)));
        assert_eq!(c.oldest_load(), Some(50));
        assert!(!c.complete_loads(BlockAddr(9)), "nothing left on line 9");
    }

    #[test]
    fn pending_event_round_trip() {
        let mut c = core();
        let e = c.next_event();
        c.pending = Some(e);
        assert_eq!(c.next_event(), e);
    }
}
