//! # iorch-simcore — deterministic discrete-event simulation engine
//!
//! The foundation of the IOrchestra (SC '15) reproduction. Everything above
//! this crate — storage devices, guest kernels, the hypervisor, workloads —
//! is modelled as state machines driven by timestamped events over a single
//! world value.
//!
//! Design points, chosen for reproducibility (per the project's HPC guides):
//!
//! * **Integer nanosecond clock** ([`SimTime`]/[`SimDuration`]): no float
//!   drift, portable results.
//! * **Stable event ordering** ([`Scheduler`]): equal timestamps fire in
//!   scheduling order, so a run is a pure function of (model, seed).
//! * **Self-contained RNG** ([`SimRng`], xoshiro256++) with the distribution
//!   zoo the paper's workloads need (exponential, Poisson, [`Zipfian`],
//!   Pareto, normal), all seedable and forkable per component.
//! * **Single-threaded runs**: parallelism belongs *across* runs, never
//!   inside one, so every figure is replayable.
//! * **Self-contained tests** ([`gen`]): randomized-test data generators
//!   over [`SimRng`], so tier-1 needs no external property-test crate and
//!   builds fully offline.

#![warn(missing_docs)]

mod event;
pub mod event_legacy;
pub mod faults;
pub mod gen;
mod idmap;
mod rng;
mod sim;
mod time;
pub mod trace;

pub use event::{Callback, EventToken, Scheduler};
pub use faults::{BusFault, FaultEvent, FaultKind, FaultPlan, FaultWindow};
pub use idmap::{IdHasher, IdMap};
pub use rng::{SimRng, Zipfian};
pub use sim::{RunOutcome, Simulation};
pub use time::{SimDuration, SimTime};
