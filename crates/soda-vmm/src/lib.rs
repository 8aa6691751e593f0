//! # soda-vmm
//!
//! Virtual-machine layer for the SODA reproduction — the model of
//! User-Mode Linux (UML) that the paper uses as guest OS, plus the
//! bootstrapping machinery the SODA Daemon drives.
//!
//! §4.2: "a UML runs directly in the unmodified user space of the host
//! OS… A special thread is created to intercept the system calls made by
//! all process threads of the UML, and redirect them into the host OS
//! kernel." That interception is the source of the slow-down measured in
//! Table 4; the bootstrap pipeline (root-filesystem customisation,
//! RAM-disk mounting, service startup) is the source of the boot times in
//! Table 2.
//!
//! * [`sysservices`] — catalog of Linux system services with dependencies
//!   and startup costs.
//! * [`rootfs`] — the four root-filesystem images of Table 2 and the SODA
//!   Daemon's tailoring (dependency-closure customisation).
//! * [`bootstrap`] — the priming pipeline and its timing model.
//! * [`intercept`] — UML syscall interception cost model (Table 4's
//!   "in UML" column) and derived application-level slowdown factors.
//! * [`guest`] — the guest OS instance (kernel banner, runtime service
//!   list, per-uid process view).
//! * [`vsn`] — the virtual service node state machine.
//! * [`isolation`] — fault/attack blast-radius model: guest-level
//!   crashes stay in the guest; host-level crashes take down every
//!   co-hosted service (the counterfactual SODA avoids).
//!
//! UML's `ubd` block and TUN/TAP network devices (§4.2) are not modelled
//! on their own: their cost is part of the measured slowdown factors.

pub mod bootstrap;
pub mod guest;
pub mod intercept;
pub mod isolation;
pub mod rootfs;
pub mod sysservices;
pub mod vsn;

pub use bootstrap::{BootstrapHostProfile, BootstrapModel, BootstrapTiming};
pub use guest::GuestOs;
pub use intercept::{InterceptCostModel, SlowdownFactors, UmlMode};
pub use isolation::{Blast, ExecutionMode, FaultKind};
pub use rootfs::{RootFsCatalog, RootFsImage, TailoredFs};
pub use sysservices::{ServiceCatalog, SystemServiceId};
pub use vsn::{VirtualServiceNode, VsnError, VsnId, VsnState};
