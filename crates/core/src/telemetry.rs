//! Engine-side observability: the simulator's event taxonomy over the
//! harness flight recorder, trace configuration, and record rendering.
//!
//! The harness's [`FlightRecorder`] stores domain-free packed
//! [`Record`]s; this module assigns their meaning for the CMP engine
//! (which unit, which [`TraceKind`], what the flag bits say) and renders
//! them back into human-readable lines for livelock dumps and artifact
//! inspection.
//!
//! Determinism: nothing here is consulted by simulation logic. The
//! engine writes records and samples *from* its state; it never reads
//! them back, so a traced run and an untraced run compute bit-identical
//! [`crate::RunResult`]s (asserted by `tests/telemetry.rs`).

use cmpsim_harness::telemetry::{self, FlightRecorder, Record, SeriesBuffer};
use std::path::PathBuf;

/// Default flight-recorder capacity.
pub const DEFAULT_RING_CAPACITY: usize = 65_536;
/// Default cycles between series samples.
pub const DEFAULT_SAMPLE_PERIOD: u64 = 50_000;
/// Events a [`crate::SimError::Livelock`] carries from the recorder.
pub const LIVELOCK_EVENT_WINDOW: usize = 32;

/// The engine's event taxonomy, packed into [`Record::kind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TraceKind {
    /// A core retired a batch of instructions (`arg` = count,
    /// `time` = the core's local cycle after the batch).
    Retire = 0,
    /// A core step ended in a stall (`flags` = wait code: 0 ready,
    /// 1 ifetch, 2 load, 3 rob, 4 mshr, 5 done; `addr` = blocking line).
    Stall = 1,
    /// An L1 demand miss (`flags`: bit0 = data side, bit1 = store,
    /// bit2 = merged into an in-flight MSHR).
    L1Miss = 2,
    /// An L2 demand hit (`flags`: bit0 = compressed line, bit1 = first
    /// touch of a prefetched line).
    L2Hit = 3,
    /// An L2 demand miss (`flags`: bit0 = matched a dataless victim tag).
    L2Miss = 4,
    /// A coherence transition applied to an L1 (`unit` = target core,
    /// `flags` = 0 invalidate, 1 recall-downgrade, 2 recall-invalidate,
    /// 3 upgrade).
    Coherence = 5,
    /// A message scheduled on the off-chip link (`flags` = 0 request,
    /// 1 data response, 2 writeback; `arg` = message bytes).
    LinkFlit = 6,
    /// A prefetch injected into the hierarchy (`flags` = 0 L1I, 1 L1D,
    /// 2 L2).
    PrefetchIssue = 7,
    /// A prefetched line landed in a cache (`flags` as issue).
    PrefetchFill = 8,
    /// An adaptive throttle moved (`flags`: bits 0–1 = throttle 0 L1I,
    /// 1 L1D, 2 L2; bit 2 = up; `arg` = new degree).
    AdaptiveMove = 9,
    /// A dirty line written back to memory (`arg` = stored segments).
    MemWrite = 10,
    /// A chaos-engine fault injected or recovered from (`flags` = the
    /// `FaultSite` discriminant, +8 when the record marks a recovery
    /// action rather than the injection; `arg` = attempt count, strike
    /// count, or extra stall cycles depending on the site).
    Fault = 11,
}

impl TraceKind {
    /// Short label used in rendered records.
    pub fn label(self) -> &'static str {
        match self {
            TraceKind::Retire => "retire",
            TraceKind::Stall => "stall",
            TraceKind::L1Miss => "l1-miss",
            TraceKind::L2Hit => "l2-hit",
            TraceKind::L2Miss => "l2-miss",
            TraceKind::Coherence => "coherence",
            TraceKind::LinkFlit => "link",
            TraceKind::PrefetchIssue => "pf-issue",
            TraceKind::PrefetchFill => "pf-fill",
            TraceKind::AdaptiveMove => "adaptive",
            TraceKind::MemWrite => "mem-write",
            TraceKind::Fault => "fault",
        }
    }

    /// Decodes a [`Record::kind`] discriminant.
    pub fn from_u8(v: u8) -> Option<TraceKind> {
        Some(match v {
            0 => TraceKind::Retire,
            1 => TraceKind::Stall,
            2 => TraceKind::L1Miss,
            3 => TraceKind::L2Hit,
            4 => TraceKind::L2Miss,
            5 => TraceKind::Coherence,
            6 => TraceKind::LinkFlit,
            7 => TraceKind::PrefetchIssue,
            8 => TraceKind::PrefetchFill,
            9 => TraceKind::AdaptiveMove,
            10 => TraceKind::MemWrite,
            11 => TraceKind::Fault,
            _ => return None,
        })
    }
}

/// Names of the prefetch levels / throttles as packed in `flags`.
const LEVELS: [&str; 3] = ["l1i", "l1d", "l2"];

/// Renders one flight-recorder record as a human-readable line.
pub fn render_record(r: &Record) -> String {
    let Some(kind) = TraceKind::from_u8(r.kind) else {
        return format!("cycle {}: unknown kind {}", r.time, r.kind);
    };
    let head = format!("cycle {} core{} {}", r.time, r.unit, kind.label());
    match kind {
        TraceKind::Retire => format!("{head} x{}", r.arg),
        TraceKind::Stall => {
            let why = match r.flags {
                0 => "ready".to_string(),
                1 => format!("ifetch 0x{:x}", r.addr),
                2 => format!("load 0x{:x}", r.addr),
                3 => "rob".to_string(),
                4 => "mshr-full".to_string(),
                5 => "done".to_string(),
                f => format!("wait?{f}"),
            };
            format!("{head} {why}")
        }
        TraceKind::L1Miss => format!(
            "{head} {}{}{} 0x{:x}",
            if r.flags & 1 != 0 { "d" } else { "i" },
            if r.flags & 2 != 0 { " store" } else { "" },
            if r.flags & 4 != 0 { " merged" } else { "" },
            r.addr
        ),
        TraceKind::L2Hit => format!(
            "{head} 0x{:x}{}{}",
            r.addr,
            if r.flags & 1 != 0 { " compressed" } else { "" },
            if r.flags & 2 != 0 { " pf-first-touch" } else { "" },
        ),
        TraceKind::L2Miss => format!(
            "{head} 0x{:x}{}",
            r.addr,
            if r.flags & 1 != 0 { " victim-tag" } else { "" },
        ),
        TraceKind::Coherence => {
            let what = match r.flags {
                0 => "invalidate",
                1 => "recall-downgrade",
                2 => "recall-invalidate",
                3 => "upgrade",
                _ => "probe",
            };
            format!("{head} {what} 0x{:x}", r.addr)
        }
        TraceKind::LinkFlit => {
            let what = match r.flags {
                0 => "request",
                1 => "data",
                _ => "writeback",
            };
            format!("{head} {what} 0x{:x} {}B", r.addr, r.arg)
        }
        TraceKind::PrefetchIssue | TraceKind::PrefetchFill => format!(
            "{head} {} 0x{:x}",
            LEVELS.get(usize::from(r.flags & 3)).unwrap_or(&"?"),
            r.addr
        ),
        TraceKind::AdaptiveMove => format!(
            "{head} {} {} -> degree {}",
            LEVELS.get(usize::from(r.flags & 3)).unwrap_or(&"?"),
            if r.flags & 4 != 0 { "up" } else { "down" },
            r.arg
        ),
        TraceKind::MemWrite => format!("{head} 0x{:x} {} segs", r.addr, r.arg),
        TraceKind::Fault => {
            let site = match r.flags & 7 {
                1 => "codec-line",
                2 => "link-request",
                3 => "link-data",
                4 => "mem-stall",
                5 => "dir-message",
                _ => "site?",
            };
            let phase = if r.flags & 8 != 0 { "recover" } else { "inject" };
            format!("{head} {phase} {site} 0x{:x} arg={}", r.addr, r.arg)
        }
    }
}

/// Configuration for one system's trace instrumentation.
#[derive(Debug, Clone)]
pub struct TraceOptions {
    /// Flight-recorder capacity in records.
    pub ring_capacity: usize,
    /// Cycles between series samples.
    pub sample_period: u64,
    /// Where series artifacts are written; `None` keeps everything
    /// in memory (tests, livelock forensics).
    pub out_dir: Option<PathBuf>,
}

impl Default for TraceOptions {
    fn default() -> Self {
        TraceOptions {
            ring_capacity: DEFAULT_RING_CAPACITY,
            sample_period: DEFAULT_SAMPLE_PERIOD,
            out_dir: Some(telemetry::telemetry_dir()),
        }
    }
}

impl TraceOptions {
    /// `Some(default options)` when `CMPSIM_TRACE` enables tracing,
    /// `None` otherwise. The enable bit is cached process-wide
    /// ([`telemetry::trace_enabled`]), so the per-run cost of the
    /// disabled path is this one `None`.
    pub fn from_env() -> Option<TraceOptions> {
        telemetry::trace_enabled().then(TraceOptions::default)
    }

    /// Returns a copy that keeps artifacts in memory only.
    pub fn in_memory(mut self) -> Self {
        self.out_dir = None;
        self
    }
}

/// Live trace state owned by a running `System`. Boxed behind an
/// `Option` so the untraced engine carries one pointer-sized `None` and
/// every instrumentation site is a single branch.
#[derive(Debug)]
pub(crate) struct EngineTrace {
    pub recorder: FlightRecorder,
    pub series: SeriesBuffer,
    pub sample_period: u64,
    /// Next cycle at or after which a sample is due (`u64::MAX` disables
    /// sampling, e.g. for the watchdog's emergency recorder).
    pub next_sample: u64,
    pub out_dir: Option<PathBuf>,
    /// Whether this trace was armed by the livelock watchdog rather than
    /// configuration (recorder only, no artifacts).
    pub emergency: bool,
}

impl EngineTrace {
    pub fn new(opts: &TraceOptions) -> Self {
        EngineTrace {
            recorder: FlightRecorder::new(opts.ring_capacity),
            series: SeriesBuffer::new(),
            sample_period: opts.sample_period,
            next_sample: 0,
            out_dir: opts.out_dir.clone(),
            emergency: false,
        }
    }

    /// A recorder-only trace the watchdog arms when a run stops making
    /// progress with tracing disabled, so the eventual
    /// [`crate::SimError::Livelock`] still carries an event window.
    pub fn emergency() -> Self {
        EngineTrace {
            recorder: FlightRecorder::new(512),
            series: SeriesBuffer::new(),
            sample_period: u64::MAX,
            next_sample: u64::MAX,
            out_dir: None,
            emergency: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_round_trip() {
        for k in 0..=11u8 {
            let kind = TraceKind::from_u8(k).expect("taxonomy covers 0..=11");
            assert_eq!(kind as u8, k);
            assert!(!kind.label().is_empty());
        }
        assert_eq!(TraceKind::from_u8(99), None);
    }

    #[test]
    fn render_is_stable_and_informative() {
        let r = Record {
            time: 1234,
            addr: 0x2a,
            kind: TraceKind::L1Miss as u8,
            unit: 3,
            flags: 0b011,
            arg: 0,
        };
        let s = render_record(&r);
        assert!(s.contains("cycle 1234"), "{s}");
        assert!(s.contains("core3"), "{s}");
        assert!(s.contains("l1-miss"), "{s}");
        assert!(s.contains("d store"), "{s}");
        assert!(s.contains("0x2a"), "{s}");

        let up = Record {
            time: 9,
            addr: 0,
            kind: TraceKind::AdaptiveMove as u8,
            unit: 0,
            flags: 0b110, // l2, up
            arg: 17,
        };
        let s = render_record(&up);
        assert!(s.contains("l2 up -> degree 17"), "{s}");

        let unknown = Record { kind: 200, ..Record::default() };
        assert!(render_record(&unknown).contains("unknown kind 200"));
    }

    #[test]
    fn options_default_and_in_memory() {
        let o = TraceOptions::default();
        assert_eq!(o.ring_capacity, DEFAULT_RING_CAPACITY);
        assert_eq!(o.sample_period, DEFAULT_SAMPLE_PERIOD);
        assert!(o.out_dir.is_some());
        assert!(o.in_memory().out_dir.is_none());
    }

    #[test]
    fn emergency_trace_never_samples_or_writes() {
        let t = EngineTrace::emergency();
        assert!(t.emergency);
        assert_eq!(t.next_sample, u64::MAX);
        assert!(t.out_dir.is_none());
    }
}
