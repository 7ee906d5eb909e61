//! # Differential-testing and fault-injection oracle
//!
//! Every headline number this reproduction reports rests on the fast
//! set-associative caches, TLB, MMU cache, page walker, and MAC engine
//! being *semantically equivalent* to their obvious reference definitions.
//! This crate makes that claim executable, four ways:
//!
//! * [`refmodel`] + [`refwalk`] — deliberately naive reference models (a
//!   recency-ordered `Vec` per set, a flat `BTreeMap`-backed walk
//!   interpreter) run op-for-op against `memsys`/`pagetable` under seeded
//!   SplitMix64 operation streams ([`ops`]), with the drivers in [`diff`].
//!   On divergence, a ddmin-style shrinking loop reduces the stream to a
//!   minimal reproducer and serialises it with the `trace` crate's binary
//!   primitives.
//! * [`refhier`] — the whole hierarchy (private L1/L2/TLB/MMU-cache
//!   stacks around one LLC and DRAM) built from those reference parts, with
//!   no timing: the statement of DESIGN.md §3's victim rules that
//!   `MemorySystem` and `SharedSystem` are checked against, counter for
//!   counter.
//! * [`macoracle`] — a bit-level MAC oracle that rebuilds the Table IV
//!   protected masks by explicit bit enumeration and recomputes the
//!   QARMA-128 PTE MAC independently of `ptguard::PteMac`, asserting
//!   embed→extract→verify round-trips and rejection of every 1-bit (and,
//!   scale permitting, 2-bit) protected-bit flip. It also implements the
//!   paper's literal `Q(Cᵢ ⊕ Aᵢ)` formula, whose chunk-swap aliasing the
//!   sweep must catch — the regression that motivated this crate.
//! * [`campaign`] — a Rowhammer fault-injection campaign through the full
//!   `MemorySystem` + `MemoryController` stack asserting the Section VI
//!   invariants: faults in protected PTE bits are never silently consumed,
//!   the correction-step distribution covers every `CorrectionStep`, and
//!   benign traffic yields zero false positives.
//!
//! The `exp oracle` artefact (crate `experiments`) runs all three as one
//! seeded, cached, `--jobs`-parallel orchestrator job.

#![warn(missing_docs)]

pub mod campaign;
pub mod diff;
pub mod macoracle;
pub mod ops;
pub mod refhier;
pub mod refmodel;
pub mod refwalk;

pub use campaign::{CampaignConfig, CampaignResult};
pub use diff::Divergence;
pub use macoracle::RefMac;
pub use refhier::{HierarchyCounts, RefHierarchy};
