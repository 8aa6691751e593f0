//! # soda-workload
//!
//! Client workload generators for the SODA experiments.
//!
//! The paper's load generator is `siege`, an HTTP request generator run
//! from LAN machines, with the request arrival rate reduced as the
//! dataset size grows (§5). We substitute deterministic-seed open-loop
//! generators (Poisson and paced) driving the [`soda_core::world`]
//! request pipeline — the measured quantity (mean response time per
//! node at a controlled arrival rate) is the same.
//!
//! * [`datasets`] — the Figure 4/6 dataset-size sweep and its rate
//!   schedule.
//! * [`httpgen`] — open-loop Poisson and fixed-pace request generators.
//! * [`loads`] — the Figure 5 *web*/*comp*/*log* CPU demand profiles.
//! * [`attack`] — the ghttpd exploit campaign and DDoS flood drivers.

pub mod attack;
pub mod datasets;
pub mod httpgen;
pub mod loads;

pub use attack::{AttackCampaign, DdosFlood};
pub use datasets::{DatasetPoint, FIG4_SWEEP, FIG6_SWEEP};
pub use httpgen::{ClosedLoopGenerator, PacedGenerator, PoissonGenerator};
pub use loads::{Fig5Workload, LoadKind};
