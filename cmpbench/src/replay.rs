//! Traced-run layer replay. Each model layer's public API is fed the
//! cell's own generated stream — generator → L1 → L2 → directory, link,
//! memory, prefetchers and codecs — and timed per layer. A clock read
//! costs about as much as one layer call, so each layer is timed as one
//! span around its whole batch and the per-call cost is the batch time
//! over the call count.

use crate::grid::{Cell, CellRun};
use crate::spans::Tracer;
use cmpsim_cache::{AccessKind, BlockAddr, SetAssocCache, SetAssocConfig, VscCache, VscConfig};
use cmpsim_coherence::{CoreId, DirAction, DirEntry, L1Request};
use cmpsim_fpc::{Bdi, Codec, CodecKind, CompressedRepr, Fpc, Zca, LINE_BYTES};
use cmpsim_link::{Channel, Message};
use cmpsim_mem::MemoryController;
use cmpsim_prefetch::{PrefetcherConfig, StridePrefetcher};
use cmpsim_trace::{CoreGenerator, TimedEvent, TraceEvent};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Distinct lines the codec replay sizes, compresses and decompresses
/// per cell (enough for a stable per-line cost, bounded for time).
const CODEC_LINES: usize = 16_384;

/// Host nanoseconds and calls of one replayed layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cost {
    pub ns: u64,
    pub calls: u64,
}

impl Cost {
    fn add(&mut self, ns: u64, calls: u64) {
        self.ns += ns;
        self.calls += calls;
    }

    pub fn ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }
}

/// Per-layer costs and replay-side counts, summed over replayed cells.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    pub trace: Cost,
    pub instructions: u64,
    pub l1: Cost,
    pub l1_misses: u64,
    pub l2_vsc: Cost,
    pub l2_plain: Cost,
    pub l2_hits: u64,
    /// `segments` + `compress` + `decompress`, per codec in
    /// [`CodecKind::all`] order.
    pub codec: [Cost; 3],
    /// `segments` alone, per codec: the engine's sizing call.
    pub sizing: [Cost; 3],
    pub prefetch: Cost,
    pub dir: Cost,
    pub link: Cost,
    pub mem: Cost,
}

/// Runs `f` in a span under `parent` and returns its host nanoseconds.
fn timed<R>(
    tracer: &Tracer,
    name: &'static str,
    parent: usize,
    id: u64,
    f: impl FnOnce() -> R,
) -> (R, u64) {
    tracer.span(name, Some(parent), id, |_| {
        let t0 = Instant::now();
        let r = f();
        (r, t0.elapsed().as_nanos() as u64)
    })
}

fn codec_cost<C: Codec>(lines: &[[u8; LINE_BYTES]]) -> (u64, u64) {
    let t0 = Instant::now();
    for l in lines {
        black_box(C::segments(black_box(l)));
    }
    let sizing = t0.elapsed().as_nanos() as u64;
    let packed: Vec<C::Compressed> = lines.iter().map(|l| C::compress(black_box(l))).collect();
    for p in &packed {
        black_box(p.decompress());
    }
    (t0.elapsed().as_nanos() as u64, sizing)
}

impl Replay {
    /// Replays one cell's full stream (warmup + measure instructions per
    /// core) through every layer.
    pub fn cell(&mut self, cell: &Cell, id: u64, tracer: &Tracer) {
        tracer.span("replay.cell", None, id, |p| {
            self.cell_inner(cell, id, tracer, p)
        });
    }

    fn cell_inner(&mut self, cell: &Cell, id: u64, tracer: &Tracer, p: usize) {
        let cfg = &cell.cfg;
        let cores = cfg.cores;
        let quota = cell.warmup + cell.measure;

        // Generator: each core's events until it has retired its quota.
        let mut gens: Vec<CoreGenerator> = (0..cores)
            .map(|c| CoreGenerator::new(&cell.spec, c, cfg.seed))
            .collect();
        let (per_core, ns) = timed(tracer, "trace.next_event", p, id, || {
            gens.iter_mut()
                .map(|g| {
                    let mut evs: Vec<TimedEvent> = Vec::new();
                    let mut done = 0;
                    while done < quota {
                        let e = g.next_event();
                        done += e.gap;
                        evs.push(e);
                    }
                    evs
                })
                .collect::<Vec<_>>()
        });
        let events: u64 = per_core.iter().map(|v| v.len() as u64).sum();
        self.trace.add(ns, events);
        self.instructions += quota * u64::from(cores);
        // Interleave cores round-robin, one event each, as the engine
        // advances them side by side.
        let longest = per_core.iter().map(Vec::len).max().unwrap_or(0);
        let stream: Vec<(u8, TraceEvent)> = (0..longest)
            .flat_map(|i| {
                per_core
                    .iter()
                    .enumerate()
                    .filter_map(move |(c, v)| v.get(i).map(|e| (c as u8, e.event)))
            })
            .collect();
        drop(per_core);

        // L1: private I and D caches per core; misses go to the L2.
        let l1_cfg = SetAssocConfig::with_capacity(cfg.l1_bytes, cfg.l1_ways);
        let mut l1i: Vec<SetAssocCache<()>> =
            (0..cores).map(|_| SetAssocCache::new(l1_cfg)).collect();
        let mut l1d: Vec<SetAssocCache<()>> =
            (0..cores).map(|_| SetAssocCache::new(l1_cfg)).collect();
        let (misses, ns) = timed(tracer, "l1.lookup_fill", p, id, || {
            let mut misses: Vec<(u8, TraceEvent)> = Vec::new();
            for &(c, ev) in &stream {
                let cache = match ev {
                    TraceEvent::IFetch(_) => &mut l1i[c as usize],
                    TraceEvent::Data { .. } => &mut l1d[c as usize],
                };
                if cache.lookup(ev.line()).is_none() {
                    black_box(cache.fill(ev.line(), false, ()));
                    misses.push((c, ev));
                }
            }
            misses
        });
        self.l1.add(ns, stream.len() as u64);
        self.l1_misses += misses.len() as u64;

        // Prefetchers: the L1 prefetchers see every access and every miss.
        let deg = PrefetcherConfig::l1().startup_prefetches;
        let mut pfs: Vec<StridePrefetcher> = (0..2 * cores)
            .map(|_| StridePrefetcher::new(PrefetcherConfig::l1()))
            .collect();
        let (_, ns) = timed(tracer, "prefetch.on_access_miss", p, id, || {
            for &(c, ev) in &stream {
                let k = 2 * c as usize + usize::from(matches!(ev, TraceEvent::Data { .. }));
                black_box(pfs[k].on_access(ev.line(), deg));
            }
            for &(c, ev) in &misses {
                let k = 2 * c as usize + usize::from(matches!(ev, TraceEvent::Data { .. }));
                black_box(pfs[k].on_miss(ev.line(), deg));
            }
        });
        self.prefetch.add(ns, (stream.len() + misses.len()) as u64);
        drop(stream);

        // Codecs: every codec on the distinct lines the L2 sees, with the
        // workload's value profile supplying the contents.
        let values = cell.spec.value_profile(cfg.seed);
        let mut seen: HashMap<BlockAddr, u8> = HashMap::new();
        let sizer = cfg.codec.segments_fn();
        let mut lines: Vec<[u8; LINE_BYTES]> = Vec::new();
        for &(_, ev) in &misses {
            seen.entry(ev.line()).or_insert_with(|| {
                let bytes = values.line_bytes(ev.line().0);
                if lines.len() < CODEC_LINES {
                    lines.push(bytes);
                }
                sizer(&bytes)
            });
        }
        for (k, kind) in CodecKind::all().into_iter().enumerate() {
            let ((total, sizing), _) = timed(tracer, kind_span(kind), p, id, || match kind {
                CodecKind::Fpc => codec_cost::<Fpc>(&lines),
                CodecKind::Bdi => codec_cost::<Bdi>(&lines),
                CodecKind::Zca => codec_cost::<Zca>(&lines),
            });
            self.codec[k].add(total, lines.len() as u64);
            self.sizing[k].add(sizing, lines.len() as u64);
        }

        // L2, both structures, on the L1-miss stream.
        let max = cfg.codec.max_segments();
        let fresh: Vec<u8> = misses.iter().map(|(_, ev)| seen[&ev.line()]).collect();
        let mut vsc: VscCache<()> = VscCache::new(VscConfig::compressed_l2_for(cfg.l2_bytes, max));
        let (l2_missed, ns) = timed(tracer, "l2.vsc", p, id, || {
            // (line, fresh segment count) of every L2 miss.
            let mut missed: Vec<(BlockAddr, u8)> = Vec::new();
            for (&(_, ev), &f) in misses.iter().zip(&fresh) {
                if !vsc.lookup(ev.line()).is_hit() {
                    let stored = if cfg.cache_compression { f } else { max };
                    black_box(vsc.fill(ev.line(), stored, false, ()));
                    missed.push((ev.line(), f));
                }
            }
            missed
        });
        self.l2_vsc.add(ns, misses.len() as u64);
        self.l2_hits += (misses.len() - l2_missed.len()) as u64;
        let mut plain: SetAssocCache<()> =
            SetAssocCache::new(SetAssocConfig::with_capacity(cfg.l2_bytes, 8));
        let (_, ns) = timed(tracer, "l2.plain", p, id, || {
            for &(_, ev) in &misses {
                if plain.lookup(ev.line()).is_none() {
                    black_box(plain.fill(ev.line(), false, ()));
                }
            }
        });
        self.l2_plain.add(ns, misses.len() as u64);

        // Directory: one entry per line, every L1 miss is a request.
        let mut slot: HashMap<BlockAddr, usize> = HashMap::new();
        let ids: Vec<usize> = misses
            .iter()
            .map(|(_, ev)| {
                let n = slot.len();
                *slot.entry(ev.line()).or_insert(n)
            })
            .collect();
        let mut dirs = vec![DirEntry::new(); slot.len()];
        let (_, ns) = timed(tracer, "dir.handle", p, id, || {
            for (&(c, ev), &i) in misses.iter().zip(&ids) {
                let req = match ev {
                    TraceEvent::Data {
                        kind: AccessKind::Store,
                        ..
                    } => L1Request::GetX,
                    _ => L1Request::GetS,
                };
                for a in dirs[i].handle(CoreId(c), req) {
                    black_box(matches!(a, DirAction::Invalidate(_)));
                }
            }
        });
        self.dir.add(ns, misses.len() as u64);

        // Link and memory: every L2 miss is a request out, a DRAM read
        // and a data response back.
        let mut link = Channel::new(cfg.link, cfg.clock_ghz);
        let (_, ns) = timed(tracer, "link.send", p, id, || {
            let mut now = 0u64;
            for &(a, f) in &l2_missed {
                let s = if cfg.link_compression { f } else { max };
                black_box(link.send(now, &Message::read_request(a, false)));
                black_box(link.send(now + 400, &Message::data_response(a, s, false)));
                now += 40;
            }
        });
        self.link.add(ns, 2 * l2_missed.len() as u64);
        let mut mem = MemoryController::with_line_segments(cfg.mem_latency, max);
        let (_, ns) = timed(tracer, "mem.read", p, id, || {
            for (i, &(a, f)) in l2_missed.iter().enumerate() {
                black_box(mem.read(a, i as u64, || f));
            }
        });
        self.mem.add(ns, l2_missed.len() as u64);
    }
}

fn kind_span(kind: CodecKind) -> &'static str {
    match kind {
        CodecKind::Fpc => "codec.fpc",
        CodecKind::Bdi => "codec.bdi",
        CodecKind::Zca => "codec.zca",
    }
}

/// The engine's own exact counters over a pass, summed over cells.
#[derive(Debug, Clone, Default)]
pub struct EngineCounts {
    pub events: u64,
    pub retired: u64,
    pub run_ns: f64,
    pub l1_accesses: u64,
    pub l1_misses: u64,
    pub l2_accesses: u64,
    pub l2_hits: u64,
    pub l2_demand_misses: u64,
    pub l2_writebacks: u64,
    pub l2_victim_tag_hits: u64,
    pub pf_issued: u64,
    pub pf_useful: u64,
    pub pf_dropped: u64,
    pub invalidations: u64,
    pub recalls: u64,
    pub link_messages: u64,
    pub link_bytes: u64,
    pub link_queue_delay: u64,
    pub mem_reads: u64,
}

/// Estimated engine nanoseconds per layer, from replayed per-call cost
/// × the engine's counts. Counts cover the measured window only, so
/// they are scaled by `retired ÷ measured instructions` to the whole
/// run.
#[derive(Debug, Clone, Default)]
pub struct Attribution {
    pub trace: f64,
    pub l1: f64,
    pub l2: f64,
    pub codec: f64,
    pub prefetch: f64,
    pub dir: f64,
    pub link: f64,
    pub mem: f64,
}

impl Attribution {
    pub fn total(&self) -> f64 {
        self.trace
            + self.l1
            + self.l2
            + self.codec
            + self.prefetch
            + self.dir
            + self.link
            + self.mem
    }
}

/// Folds one finished cell into the pass counts and the attribution.
pub fn account(
    cell: &Cell,
    run: &CellRun,
    replay: &Replay,
    counts: &mut EngineCounts,
    est: &mut Attribution,
) {
    let r = &run.result;
    let s = &r.stats;
    let l1_acc = s.l1i.accesses + s.l1d.accesses;
    let l1_miss = s.l1i.demand_misses + s.l1d.demand_misses;
    counts.events += r.events;
    counts.retired += r.retired;
    counts.run_ns += run.run_s * 1e9;
    counts.l1_accesses += l1_acc;
    counts.l1_misses += l1_miss;
    counts.l2_accesses += s.l2.accesses;
    counts.l2_hits += s.l2.hits;
    counts.l2_demand_misses += s.l2.demand_misses;
    counts.l2_writebacks += s.mem_writes;
    counts.l2_victim_tag_hits += s.l2_victim_tag_hits;
    for l in [&s.l1i, &s.l1d, &s.l2] {
        counts.pf_issued += l.prefetches_issued;
        counts.pf_useful += l.prefetch_hits;
    }
    counts.pf_dropped += s.dropped_prefetches;
    counts.invalidations += s.coherence.invalidations;
    counts.recalls += s.coherence.recalls;
    counts.link_messages += s.link.messages;
    counts.link_bytes += s.link.total_bytes;
    counts.link_queue_delay += s.link.queue_delay_cycles;
    counts.mem_reads += s.mem_reads;

    let scale = if s.instructions == 0 {
        0.0
    } else {
        r.retired as f64 / s.instructions as f64
    };
    let events_per_inst = if replay.instructions == 0 {
        0.0
    } else {
        replay.trace.calls as f64 / replay.instructions as f64
    };
    let cfg = &cell.cfg;
    est.trace += replay.trace.ns_per_call() * events_per_inst * r.retired as f64;
    est.l1 += replay.l1.ns_per_call() * l1_acc as f64 * scale;
    let l2 = if cfg.uses_vsc() {
        replay.l2_vsc
    } else {
        replay.l2_plain
    };
    est.l2 += l2.ns_per_call() * s.l2.accesses as f64 * scale;
    if cfg.cache_compression || cfg.link_compression {
        let k = CodecKind::all()
            .iter()
            .position(|&c| c == cfg.codec)
            .expect("known codec");
        est.codec += replay.sizing[k].ns_per_call() * (s.mem_reads + s.mem_writes) as f64 * scale;
    }
    if cfg.prefetch.enabled() {
        est.prefetch +=
            replay.prefetch.ns_per_call() * (l1_acc + l1_miss + s.l2.accesses) as f64 * scale;
    }
    est.dir += replay.dir.ns_per_call() * s.l2.accesses as f64 * scale;
    est.link += replay.link.ns_per_call() * s.link.messages as f64 * scale;
    est.mem += replay.mem.ns_per_call() * s.mem_reads as f64 * scale;
}
