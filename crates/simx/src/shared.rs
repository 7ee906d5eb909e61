//! A true shared-memory-system multi-core model (Section VII-C).
//!
//! Unlike [`crate::multicore`] — which approximates contention with a DRAM
//! latency multiplier, as the paper's SE-mode methodology does — this model
//! *derives* contention: four cores, each a [`memsys::CoreStack`] (private
//! TLB, MMU cache, L1D and L2, and the one page walk), share one LLC and one
//! or more DRAM channels, and requests that overlap in time queue behind
//! each other at their line's channel (lines spread by the
//! [`ChannelInterleave`]). A miss is served inline once its channel is
//! free. Each core is an O3-overlap in-order pipeline as in the per-core
//! model. Core pipelines run in integer milli-cycles; the channel
//! serialization point runs in integer picoseconds — the same timeline the
//! DRAM devices and the event pump use — with a single rounding point per
//! request ([`clock::millicycles_to_ps`]), so interleavings and totals are
//! exact at any horizon.
//!
//! The two models bracket the paper's result; the `multicore` experiment
//! reports both.

use dram::{ChannelInterleave, DramDevice, DramGeometry, DramTiming, RowhammerConfig};
use memsys::cache::Cache;
use memsys::config::clock;
use memsys::stack::{Access, Step, Uncore};
use memsys::system::OsPort;
use memsys::{CoreStack, MemSysConfig, MemoryController, MemorySystem};
use pagetable::addr::PhysAddr;
use pagetable::PAGE_SIZE;
use ptguard::line::Line;
use ptguard::{PtGuardConfig, PtGuardEngine};
use workloads::multiprog::Bundle;
use workloads::tracegen::{Op, TraceGenerator};

use crate::runner::map_workload_in;
use crate::source::OpSource;

/// Shared-model parameters.
#[derive(Debug, Clone, Copy)]
pub struct SharedConfig {
    /// Fraction of every memory stall the O3 core hides.
    pub o3_overlap: f64,
    /// Instructions per core in the measured region (an equal warm-up
    /// region runs first).
    pub instructions_per_core: u64,
    /// DRAM capacity in GB.
    pub dram_gb: u64,
    /// DRAM burst occupancy per request in ns (channel serialization).
    pub burst_occupancy_ns: f64,
    /// Memory channels (power of two); requests serialize per channel.
    pub channels: usize,
}

impl Default for SharedConfig {
    fn default() -> Self {
        Self {
            o3_overlap: 0.6,
            instructions_per_core: 60_000,
            dram_gb: 16,
            burst_occupancy_ns: 6.0,
            channels: 1,
        }
    }
}

/// One core: its private memory stack, its instruction source and its
/// pipeline clock.
struct Core<S: OpSource> {
    stack: CoreStack,
    source: S,
    /// Local time in milli-cycles (the core's pipeline clock).
    now_mc: u64,
    done: u64,
}

/// What the cores share: the LLC and one controller per channel.
struct Shared {
    llc: Cache,
    /// One controller per channel, indexed by [`ChannelInterleave`] output.
    controllers: Vec<MemoryController>,
    interleave: ChannelInterleave,
}

impl Uncore for Shared {
    fn llc(&mut self) -> &mut Cache {
        &mut self.llc
    }

    fn write_line(&mut self, addr: PhysAddr, line: Line) {
        let ch = self.interleave.channel_of(addr) as usize;
        self.controllers[ch].write_line(addr, line);
    }
}

/// The shared back-end plus per-core stacks.
///
/// Generic over the per-core instruction source (live generator by
/// default; trace replay plugs in the same way as for
/// [`crate::Machine`]).
pub struct SharedSystem<S: OpSource = TraceGenerator> {
    cores: Vec<Core<S>>,
    shared: Shared,
    cfg: SharedConfig,
    /// Per-channel serialization point, in integer picoseconds (the same
    /// timeline as the DRAM devices behind the controllers).
    channel_free_at: Vec<u128>,
    /// Unhidden fraction of a stall, in milli-cycles per cycle.
    keep_millis: u64,
    /// Channel hold per request, in integer picoseconds.
    occupancy_ps: u128,
    /// Core clock in kHz (converts milli-cycles ↔ picoseconds).
    core_khz: u64,
    /// DRAM requests that waited on their channel.
    pub queued_requests: u64,
    /// Total DRAM requests.
    pub dram_requests: u64,
    /// Ops that ended in a page fault or an integrity exception.
    pub faults: u64,
    /// The core of every step, in execution order (for the reference
    /// check, which replays the same interleaving).
    #[cfg(test)]
    schedule: Vec<usize>,
}

/// The hierarchy geometry of a `cores`-core shared system: Table III
/// private levels, 1 MB of LLC per core, `cfg.channels` channels.
fn memsys_config(cores: usize, cfg: &SharedConfig) -> MemSysConfig {
    MemSysConfig {
        channels: cfg.channels.max(1),
        ..MemSysConfig::multicore_percore(cores)
    }
}

/// The trace seed of core `i`. [`TraceGenerator::new`] seeds with
/// `seed | 1`, so the seeds step by two from an even base: adjacent cores
/// never collapse onto one stream.
fn core_seed(i: usize) -> u64 {
    0x5ca1e + 2 * i as u64
}

/// The physical frames core `i` of `cores` allocates from: an equal share
/// of DRAM each, frame 0 left unused, so no two cores share a page.
fn core_frames(i: usize, cfg: &SharedConfig, cores: usize) -> std::ops::Range<u64> {
    let share = (cfg.dram_gb << 30) / PAGE_SIZE as u64 / cores as u64;
    let first = (i as u64 * share).max(1);
    first..(i as u64 + 1) * share
}

impl SharedSystem<TraceGenerator> {
    /// Builds a shared system running `bundle` (one workload per core).
    ///
    /// # Panics
    ///
    /// Panics if address-space construction fails (undersized DRAM).
    #[must_use]
    pub fn new(bundle: &Bundle, guard: Option<PtGuardConfig>, cfg: SharedConfig) -> Self {
        let sources = bundle
            .workloads
            .iter()
            .enumerate()
            .map(|(i, w)| TraceGenerator::new(*w, core_seed(i)))
            .collect();
        Self::from_sources(bundle, sources, guard, cfg)
    }
}

impl<S: OpSource> SharedSystem<S> {
    /// Builds a shared system with one explicit source per core (paired
    /// positionally with `bundle.workloads`, which size the address
    /// spaces).
    ///
    /// # Panics
    ///
    /// Panics if `sources` and the bundle disagree on core count, or if
    /// address-space construction fails (undersized DRAM).
    #[must_use]
    pub fn from_sources(
        bundle: &Bundle,
        sources: Vec<S>,
        guard: Option<PtGuardConfig>,
        cfg: SharedConfig,
    ) -> Self {
        assert_eq!(sources.len(), bundle.workloads.len(), "one source per core");
        let mem_cfg = memsys_config(bundle.workloads.len(), &cfg);
        let controllers: Vec<MemoryController> = (0..mem_cfg.channels)
            .map(|_| {
                let geometry = DramGeometry::with_capacity(cfg.dram_gb << 30);
                let device =
                    DramDevice::new(geometry, DramTiming::default(), RowhammerConfig::immune());
                let engine = guard.map(PtGuardEngine::new);
                MemoryController::new(device, engine, mem_cfg.core_ghz)
            })
            .collect();

        // Build each core's address space through a scratch hierarchy so PTE
        // lines are MAC'd in DRAM, then steal the controllers back.
        let mut sys = MemorySystem::new_multi(mem_cfg, controllers);
        let cores = bundle
            .workloads
            .iter()
            .zip(sources)
            .enumerate()
            .map(|(i, (w, source))| {
                let frames = core_frames(i, &cfg, bundle.workloads.len());
                let space = map_workload_in(&mut OsPort::new(&mut sys), *w, 34, frames);
                let mut stack = CoreStack::new(&mem_cfg);
                stack.set_root(space.root(), 34);
                Core {
                    stack,
                    source,
                    now_mc: 0,
                    done: 0,
                }
            })
            .collect();
        sys.flush_caches();
        // Decompose the scratch hierarchy: keep only its controllers (which
        // own the DRAM channels with all page tables MAC'd in place).
        let controllers = sys.into_controllers();
        let channels = controllers.len();
        Self {
            cores,
            shared: Shared {
                llc: Cache::new(mem_cfg.llc),
                controllers,
                interleave: ChannelInterleave::new(u32::try_from(channels).expect("channels")),
            },
            keep_millis: ((1.0 - cfg.o3_overlap) * 1000.0).round() as u64,
            occupancy_ps: clock::ns_to_ps(cfg.burst_occupancy_ns),
            core_khz: clock::ghz_to_khz(mem_cfg.core_ghz),
            cfg,
            channel_free_at: vec![0; channels],
            queued_requests: 0,
            dram_requests: 0,
            faults: 0,
            #[cfg(test)]
            schedule: Vec::new(),
        }
    }

    /// Executes one instruction on core `ci`, advancing its local clock.
    /// A memory op runs the core's walk; each miss serialises on its
    /// line's channel, on the ps timeline, and is read inline.
    fn step(&mut self, ci: usize) {
        let core = &mut self.cores[ci];
        let op = core.source.next_op();
        core.now_mc += 1000;
        let (va, write) = match op {
            Op::Compute => return,
            Op::Load(va) => (va, false),
            Op::Store(va) => (va, true),
        };
        let mut op = Access::new(va, write);
        let mut step = core.stack.step(&mut op, &mut self.shared);
        let out = loop {
            let (addr, is_pte) = match step {
                Step::Done(out) => break out,
                Step::Miss { addr, is_pte } => (addr, is_pte),
            };
            // The request reaches its channel once every cycle the op has
            // spent so far (earlier walk levels included) has elapsed. The
            // core's milli-cycle clock converts once per request;
            // everything past that point (wait, burst, occupancy) stays in
            // integer ps.
            self.dram_requests += 1;
            let ch = self.shared.interleave.channel_of(addr) as usize;
            let now_ps = clock::millicycles_to_ps(core.now_mc + op.cycles() * 1000, self.core_khz);
            let wait_ps = self.channel_free_at[ch].saturating_sub(now_ps);
            if wait_ps > 0 {
                self.queued_requests += 1;
            }
            let mut read = self.shared.controllers[ch].read_line(addr, is_pte);
            // MAC computation happens in the controller after the data
            // burst: it delays *this* requester but does not hold the
            // channel.
            let channel_cycles = read.latency_cycles - read.mac_cycles;
            self.channel_free_at[ch] = now_ps
                + wait_ps
                + clock::cycles_to_ps(channel_cycles, self.core_khz)
                + self.occupancy_ps;
            read.latency_cycles += clock::ps_to_cycles(wait_ps, self.core_khz);
            step = core.stack.resume(&mut op, &read, true, &mut self.shared);
        };
        if !out.is_ok() {
            self.faults += 1;
        }
        core.now_mc += out.cycles() * self.keep_millis;
    }

    /// Runs all cores to completion (time-ordered interleaving); returns
    /// per-core cycle counts for the measured region.
    pub fn run(&mut self) -> Vec<u64> {
        // Warm-up region.
        self.run_region();
        for c in &mut self.cores {
            c.now_mc = 0;
            c.done = 0;
        }
        self.channel_free_at.fill(0);
        // Measured region.
        self.run_region();
        self.cores.iter().map(|c| (c.now_mc + 500) / 1000).collect()
    }

    fn run_region(&mut self) {
        let target = self.cfg.instructions_per_core;
        loop {
            // The core with the smallest local time executes next — a
            // time-ordered interleaving that lets request streams collide
            // realistically at the channel.
            let mut next: Option<usize> = None;
            for (i, c) in self.cores.iter().enumerate() {
                if c.done < target && next.is_none_or(|n| c.now_mc < self.cores[n].now_mc) {
                    next = Some(i);
                }
            }
            let Some(ci) = next else { break };
            #[cfg(test)]
            self.schedule.push(ci);
            self.step(ci);
            self.cores[ci].done += 1;
        }
    }
}

/// Evaluates a bundle under the shared model: average per-core slowdown of
/// PT-Guard vs baseline.
#[must_use]
pub fn evaluate_bundle_shared(bundle: &Bundle, guard: PtGuardConfig, cfg: SharedConfig) -> f64 {
    let base = SharedSystem::new(bundle, None, cfg).run();
    let guarded = SharedSystem::new(bundle, Some(guard), cfg).run();
    let mut total = 0.0;
    for (b, g) in base.iter().zip(guarded.iter()) {
        total += *g as f64 / (*b).max(1) as f64 - 1.0;
    }
    total / base.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use oracle::refhier::{level, HierarchyCounts, RefDemandCounts, StackCounts};
    use oracle::RefHierarchy;
    use workloads::multiprog::{mix_bundles, same_bundles};

    /// Runs `bundle` on a PT-Guard shared system, replays the same OS
    /// build and the same per-core op streams, in the order the run
    /// scheduled them, on the reference hierarchy with one private stack
    /// per core, and returns both sets of counters, demand counters summed
    /// over the cores.
    fn fast_and_reference(
        bundle: &Bundle,
        cfg: SharedConfig,
    ) -> [(HierarchyCounts, RefDemandCounts); 2] {
        let mut sys = SharedSystem::new(bundle, Some(PtGuardConfig::default()), cfg);
        let _ = sys.run();
        let cores = bundle.workloads.len();
        let mut reference = RefHierarchy::new(&memsys_config(cores, &cfg), cfg.dram_gb << 30);
        let roots: Vec<u64> = bundle
            .workloads
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let frames = core_frames(i, &cfg, cores);
                map_workload_in(&mut reference, *w, 34, frames).root().0
            })
            .collect();
        reference.flush();
        reference.fresh_caches(cores);
        for (ci, root) in roots.into_iter().enumerate() {
            reference.set_root(ci, root, 34);
        }
        let mut sources: Vec<TraceGenerator> = bundle
            .workloads
            .iter()
            .enumerate()
            .map(|(i, w)| TraceGenerator::new(*w, core_seed(i)))
            .collect();
        for &ci in &sys.schedule {
            match sources[ci].next_op() {
                Op::Compute => {}
                Op::Load(va) => reference.access(ci, va.as_u64(), false),
                Op::Store(va) => reference.access(ci, va.as_u64(), true),
            }
        }
        let ctrl = |f: fn(&memsys::controller::ControllerStats) -> u64| {
            sys.shared.controllers.iter().map(|c| f(&c.stats())).sum()
        };
        let fast = HierarchyCounts {
            stacks: sys
                .cores
                .iter()
                .map(|c| StackCounts::of(&c.stack))
                .collect(),
            llc: level(sys.shared.llc.stats()),
            dram_reads: ctrl(|s| s.reads),
            dram_writes: ctrl(|s| s.writes),
        };
        assert_eq!(sys.faults, 0, "{}: a shared-core op faulted", bundle.name);
        let demand =
            sys.cores
                .iter()
                .map(|c| c.stack.stats())
                .fold(RefDemandCounts::default(), |d, s| RefDemandCounts {
                    walks: d.walks + s.walks,
                    llc_misses: d.llc_misses + s.llc_misses,
                    walk_llc_misses: d.walk_llc_misses + s.walk_llc_misses,
                });
        [(fast, demand), (reference.counts(), reference.demand())]
    }

    #[test]
    fn shared_system_matches_the_reference_hierarchy() {
        // `exp multicore --trial`'s bundles at its per-core length, one
        // MIX bundle, and the channels contention bundle on two channels.
        let cfg = SharedConfig {
            instructions_per_core: 30_000,
            ..SharedConfig::default()
        };
        let mut cases: Vec<(Bundle, SharedConfig)> = same_bundles(4)
            .into_iter()
            .take(4)
            .map(|b| (b, cfg))
            .collect();
        cases.push((mix_bundles(4, 0x3117).swap_remove(0), cfg));
        let lbm = same_bundles(4)
            .into_iter()
            .find(|b| b.name == "SAME-lbm")
            .unwrap();
        cases.push((lbm, SharedConfig { channels: 2, ..cfg }));
        for (bundle, cfg) in &cases {
            let [fast, reference] = fast_and_reference(bundle, *cfg);
            assert_eq!(
                fast, reference,
                "{} on {} channels",
                bundle.name, cfg.channels
            );
            let fast = fast.0;
            assert!(
                fast.stacks.iter().all(|s| s.l1[2] > 0),
                "{}: no L1 victims",
                bundle.name
            );
        }
    }

    #[test]
    fn a_lone_in_order_core_never_queues_behind_itself() {
        // With nothing hidden and no other core, each request reaches its
        // channel after the previous one has left it: a walk miss followed
        // by a data miss must not wait on the walk's own read.
        let cfg = SharedConfig {
            o3_overlap: 0.0,
            ..SharedConfig::default()
        };
        for name in ["xalancbmk", "mcf", "sssp"] {
            let bundle = Bundle {
                name: name.to_string(),
                workloads: vec![workloads::profiles::by_name(name).unwrap()],
            };
            let mut sys = SharedSystem::new(&bundle, Some(PtGuardConfig::default()), cfg);
            let _ = sys.run();
            assert!(sys.dram_requests > 0, "{name}: no DRAM traffic");
            assert_eq!(
                sys.queued_requests, 0,
                "{name}: {} of {} requests queued behind their own op",
                sys.queued_requests, sys.dram_requests
            );
        }
    }

    #[test]
    fn the_cores_of_a_same_bundle_run_distinct_streams() {
        let bundle = same_bundles(4).swap_remove(0);
        let mut sys = SharedSystem::new(&bundle, None, SharedConfig::default());
        let streams: Vec<Vec<Op>> = sys
            .cores
            .iter_mut()
            .map(|c| (0..1000).map(|_| c.source.next_op()).collect())
            .collect();
        for i in 0..streams.len() {
            for j in i + 1..streams.len() {
                assert_ne!(
                    streams[i], streams[j],
                    "cores {i} and {j} replay one stream"
                );
            }
        }
    }

    #[test]
    fn the_cores_of_a_bundle_share_no_physical_page() {
        // Four copies of lbm stream through four disjoint footprints, so
        // their DRAM traffic adds up; cores sharing frames hit in the LLC
        // on each other's lines and make about as many requests as one.
        let cfg = SharedConfig {
            instructions_per_core: 15_000,
            ..SharedConfig::default()
        };
        let requests = |cores: usize| {
            let lbm = same_bundles(cores)
                .into_iter()
                .find(|b| b.name == "SAME-lbm")
                .unwrap();
            let mut sys = SharedSystem::new(&lbm, None, cfg);
            let _ = sys.run();
            sys.dram_requests
        };
        let (one, four) = (requests(1), requests(4));
        assert!(
            four > 3 * one,
            "4 cores made {four} DRAM requests, 1 core {one}"
        );
        for cores in 1..=4 {
            let frames: Vec<_> = (0..cores).map(|i| core_frames(i, &cfg, cores)).collect();
            assert_eq!(frames[0].start, 1, "frame 0 stays unused");
            assert!(frames.windows(2).all(|w| w[0].end <= w[1].start));
            assert!(frames[cores - 1].end <= (cfg.dram_gb << 30) / PAGE_SIZE as u64);
        }
    }

    #[test]
    fn shared_model_is_deterministic() {
        let cfg = SharedConfig {
            instructions_per_core: 8_000,
            ..SharedConfig::default()
        };
        let bundles = same_bundles(2);
        let b = &bundles[0];
        let a = SharedSystem::new(b, None, cfg).run();
        let c = SharedSystem::new(b, None, cfg).run();
        assert_eq!(a, c);
    }

    #[test]
    fn more_cores_mean_more_queueing() {
        // A lone core's requests are spaced by its own stalls; adding cores
        // makes streams collide at the channel. (Memory-bound bundles
        // saturate quickly, so compare 1 vs 4 cores.)
        let cfg = SharedConfig {
            instructions_per_core: 15_000,
            ..SharedConfig::default()
        };
        let one = same_bundles(1);
        let four = same_bundles(4);
        let lbm1 = one.iter().find(|b| b.name == "SAME-lbm").unwrap();
        let lbm4 = four.iter().find(|b| b.name == "SAME-lbm").unwrap();
        let mut s1 = SharedSystem::new(lbm1, None, cfg);
        let _ = s1.run();
        let mut s4 = SharedSystem::new(lbm4, None, cfg);
        let _ = s4.run();
        let q1 = s1.queued_requests as f64 / s1.dram_requests.max(1) as f64;
        let q4 = s4.queued_requests as f64 / s4.dram_requests.max(1) as f64;
        assert!(
            q4 > q1 + 0.02,
            "queueing must grow with core count: {q1} vs {q4}"
        );
    }

    #[test]
    fn shared_model_contends_and_stays_cheap() {
        let cfg = SharedConfig {
            instructions_per_core: 25_000,
            ..SharedConfig::default()
        };
        let bundles = same_bundles(4);
        let lbm = bundles.iter().find(|b| b.name == "SAME-lbm").unwrap();
        let slowdown = evaluate_bundle_shared(lbm, PtGuardConfig::default(), cfg);
        assert!(slowdown > -0.005, "{slowdown}");
        assert!(
            slowdown < 0.04,
            "shared-model slowdown should be small: {slowdown}"
        );

        // Contention must actually occur for a 4-core memory-bound bundle.
        let mut sys = SharedSystem::new(lbm, None, cfg);
        let _ = sys.run();
        assert!(sys.dram_requests > 0);
        assert!(
            sys.queued_requests * 20 > sys.dram_requests,
            "expected ≥5% of DRAM requests to queue: {}/{}",
            sys.queued_requests,
            sys.dram_requests
        );
    }

    #[test]
    fn more_channels_relieve_queueing() {
        // The same 4-core memory-bound bundle on 1 vs 4 channels: spreading
        // lines across channels must cut the fraction of requests that wait.
        let base_cfg = SharedConfig {
            instructions_per_core: 15_000,
            ..SharedConfig::default()
        };
        let bundles = same_bundles(4);
        let lbm = bundles.iter().find(|b| b.name == "SAME-lbm").unwrap();
        let queueing = |channels: usize| {
            let mut sys = SharedSystem::new(
                lbm,
                None,
                SharedConfig {
                    channels,
                    ..base_cfg
                },
            );
            let _ = sys.run();
            sys.queued_requests as f64 / sys.dram_requests.max(1) as f64
        };
        let q1 = queueing(1);
        let q4 = queueing(4);
        assert!(
            q4 < q1 - 0.02,
            "4 channels must queue less than 1: {q1} vs {q4}"
        );
    }
}
