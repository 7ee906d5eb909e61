//! # Memory-system simulator
//!
//! The cache/TLB/memory-controller substrate of the PT-Guard reproduction,
//! mirroring the gem5 memory system the paper evaluates on (Table III):
//!
//! * [`cache`] — set-associative, write-back, write-allocate caches that
//!   hold *data* (not just tags), because PT-Guard's correctness story
//!   depends on what exactly reaches the cache hierarchy: lines are stored
//!   MAC-stripped on-chip and MAC-embedded in DRAM.
//! * [`tlb`] — the 64-entry fully-associative TLB.
//! * [`mmucache`] — the 8 KB page-walk cache holding upper-level entries.
//! * [`controller`] — the memory controller where the
//!   [`ptguard::PtGuardEngine`] mounts: DRAM reads/writes flow through the
//!   engine, the `is_pte` request bit triggers walk-time verification, and
//!   the `PTECheckFailed` response bit propagates to the core (Figure 5).
//! * [`stack`] — [`stack::CoreStack`], one core's private TLB, MMU cache,
//!   L1D and L2, and the one page walk: a step function that runs an op
//!   until it completes or misses every cache level, and a resume function
//!   that takes the DRAM read the miss waited on. The walk's `is_pte` reads
//!   are where PT-Guard verifies and where `PTECheckFailed` reaches the
//!   core; the Section IV-E bounds check runs on every entry it reads.
//! * [`system`] — [`system::MemorySystem`], one core stack over the LLC and
//!   the channel controllers, with per-access latency in CPU cycles. Its
//!   two drivers differ only in how they serve a miss: `load`/`store` read
//!   DRAM inline, and the pipelined path (`pipe_issue_event`, pumped by
//!   `advance_to_next_event`) keeps a window of ops in flight over
//!   MSHR-tracked misses and the controller's banked queues (the `mlp` knob
//!   in [`config::MemSysConfig`]). `simx`'s shared multi-core model builds
//!   one core stack per core around its own LLC and serves misses through
//!   its per-channel serialisation.

#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod controller;
pub mod fullmac;
pub mod mmucache;
pub mod stack;
pub mod system;
pub mod tlb;

pub use config::MemSysConfig;
pub use controller::MemoryController;
pub use stack::CoreStack;
pub use system::{AccessOutcome, IssueOutcome, MemorySystem, PumpStats};
