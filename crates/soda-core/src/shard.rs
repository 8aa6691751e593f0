//! Sharded control plane: placement cells with per-cell Masters.
//!
//! The paper's SODA Master funnels every admission, placement, and
//! recovery decision through one coordinator. To scale past that
//! ceiling the host roster is partitioned into *placement cells*
//! ([`ShardMap`] in `config`), and each cell gets its own full Master
//! stack ([`ShardCell`]): service records, placement index, admission
//! path, recovery episodes, and a write-ahead [`Journal`]. Every world
//! holds its cells in [`ShardPlane::cells`] — one cell by default, `n`
//! after [`SodaWorld::configure_shards`]. Cells coordinate only through
//! explicit, epoch-stamped messages that ride the engine event queue
//! with a configurable inter-shard latency — never through shared memory.
//!
//! Key properties:
//!
//! - **One cell is the paper's single Master.** Every cross-cell path
//!   degenerates when there is one cell: the cell slice is the whole
//!   roster, the round-robin home cursor never moves, spill retries are
//!   gated on `n > 1`, the id lane is `base 1, stride 1`, and
//!   `shard_salt(0) == 0` leaves the recovery RNG seed unsalted. Tier-1
//!   tests pin the one-cell trajectory and event fingerprints.
//! - **Global ids without coordination.** Cell `k` of `n` allocates
//!   service/VSN ids from the lane `{k+1, k+1+n, k+1+2n, ...}`
//!   ([`SodaMaster::set_id_lane`]), so `(id - 1) % n` recovers the home
//!   shard of any id with no inter-cell id traffic.
//! - **Cross-shard spill.** Admission and recovery placement first try
//!   the home cell's hosts; if the cell is full, the home Master
//!   re-places over the whole fleet (one simulated reservation
//!   round-trip of extra latency on the spilled creation's priming).
//! - **Shard-local beliefs, messaged conclusions.** Heartbeat beliefs
//!   about a host live only in that host's cell. When a cell detects a
//!   dead node whose service is homed elsewhere (a spilled placement),
//!   it sends a [`ShardMsg::NodeDown`] stamped with the destination
//!   journal's epoch; deliveries whose epoch no longer matches (the home
//!   Master failed over in flight) are dropped as stale — the same
//!   generation-guard idiom the NIC wakeups use.

use soda_hup::host::HostId;
use soda_sim::{Ctx, Event, SimDuration};
use soda_vmm::vsn::VsnId;

use crate::config::{ShardId, ShardMap};
use crate::journal::Journal;
use crate::master::SodaMaster;
use crate::recovery::{self, RecoveryConfig, RecoveryManager};
use crate::service::ServiceId;
use crate::world::{SodaWorld, JOURNAL_CHECKPOINT_EVERY};

/// How many placement cells drive a world's control plane.
/// `Sharded(0)` and `Sharded(1)` both mean a single cell that owns the
/// whole fleet (the default, and the paper's single SODA Master).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ControlPlaneKind {
    /// `n` cells, each with its own Master/journal/recovery stack.
    Sharded(u32),
}

impl Default for ControlPlaneKind {
    fn default() -> Self {
        ControlPlaneKind::Sharded(1)
    }
}

impl ControlPlaneKind {
    /// Number of cells this kind implies (always at least 1).
    pub fn shards(&self) -> u32 {
        let ControlPlaneKind::Sharded(n) = self;
        (*n).max(1)
    }

    /// Stable label for bench records and logs.
    pub fn label(&self) -> String {
        format!("sharded-{}", self.shards())
    }
}

/// Seed salt for cell `k`'s recovery RNG, so cells draw independent
/// backoff jitter. `shard_salt(0) == 0`: cell 0 keeps the unsalted
/// stream, so a one-cell world draws exactly `RecoveryConfig::seed`.
pub fn shard_salt(k: u32) -> u64 {
    (k as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// One placement cell's control-plane stack.
pub struct ShardCell {
    /// The cell's Master: service records, placement, admission index.
    pub master: SodaMaster,
    /// The cell's write-ahead journal (admission through teardown).
    pub journal: Journal,
    /// The cell's recovery manager: episodes, backoff RNG, and beliefs
    /// about the cell's own hosts.
    pub recovery: RecoveryManager,
    /// The tunables of the cell's recovery loop (its seed salted with
    /// `shard_salt(k)`).
    pub recovery_cfg: RecoveryConfig,
}

impl ShardCell {
    /// Cell `k` of `n`: an empty Master on id lane `k` of `n`, its
    /// genesis journal, and a disarmed recovery manager seeded with
    /// `shard_salt(k)`.
    pub(crate) fn new(k: u32, n: u32) -> Self {
        let mut cfg = RecoveryConfig::default();
        cfg.seed ^= shard_salt(k);
        let master = SodaMaster::new();
        let journal = Journal::new(master.snapshot(1), JOURNAL_CHECKPOINT_EVERY);
        let mut cell = ShardCell {
            master,
            journal,
            recovery: RecoveryManager::new(cfg.seed),
            recovery_cfg: cfg,
        };
        cell.stripe(k, n);
        cell
    }

    /// Move the Master onto id lane `{k+1, k+1+n, ...}` and re-seed the
    /// journal so its genesis checkpoint carries the lane's counters.
    /// Only valid before the cell has created anything.
    pub(crate) fn stripe(&mut self, k: u32, n: u32) {
        self.master.set_id_lane(u64::from(k) + 1, u64::from(n));
        self.journal = Journal::new(self.master.snapshot(1), JOURNAL_CHECKPOINT_EVERY);
    }
}

/// The world's sharding state: the host→cell map, every cell, and
/// message-layer counters.
pub struct ShardPlane {
    /// One-way latency of an inter-shard message.
    pub latency: SimDuration,
    /// Contiguous balanced host→cell partition.
    pub map: ShardMap,
    /// Every cell, indexed by `ShardId`.
    pub cells: Vec<ShardCell>,
    /// Round-robin cursor choosing each new service's home cell.
    pub next_home: u32,
    /// Creations that could not fit in their home cell and were
    /// re-placed over the whole fleet.
    pub spills: u64,
    /// Inter-shard messages sent.
    pub msgs_sent: u64,
    /// Inter-shard messages dropped because the destination epoch moved.
    pub msgs_stale: u64,
}

impl ShardPlane {
    /// Default one-way inter-shard latency: cells live in one facility,
    /// so a control message costs about a LAN round trip.
    pub const DEFAULT_LATENCY: SimDuration = SimDuration::from_micros(500);

    /// `kind.shards()` fresh cells over `hosts` roster slots.
    pub fn new(kind: ControlPlaneKind, latency: SimDuration, hosts: usize) -> Self {
        let n = kind.shards();
        Self {
            latency,
            map: ShardMap::new(n, hosts),
            cells: (0..n).map(|k| ShardCell::new(k, n)).collect(),
            next_home: 0,
            spills: 0,
            msgs_sent: 0,
            msgs_stale: 0,
        }
    }

    /// Number of cells.
    pub fn count(&self) -> u32 {
        self.map.count()
    }
}

/// An inter-shard control message. Payloads are plain ids so messages
/// stay `Copy` and allocation-free on the event queue.
#[derive(Clone, Copy, Debug)]
pub enum ShardMsg {
    /// A cell observed (via its heartbeat beliefs) that `vsn` of the
    /// foreign-homed `service` is down; the home shard owns the episode.
    NodeDown {
        service: ServiceId,
        vsn: VsnId,
        capacity: u32,
        origin_host: HostId,
        try_reprime: bool,
    },
}

impl ShardMsg {
    /// Stable tag for observability events.
    pub fn kind(&self) -> &'static str {
        match self {
            ShardMsg::NodeDown { .. } => "node_down",
        }
    }
}

/// Send `msg` from cell `from` to cell `to`, stamped with `to`'s current
/// journal epoch. The message rides the engine queue for the configured
/// inter-shard latency; on delivery, a stale epoch (the destination
/// Master failed over in flight) drops the message.
pub(crate) fn send_shard_msg(
    world: &mut SodaWorld,
    ctx: &mut Ctx<SodaWorld>,
    from: ShardId,
    to: ShardId,
    msg: ShardMsg,
) {
    let epoch = world.journal_of(to).epoch();
    let latency = world.shards.latency;
    world.shards.msgs_sent += 1;
    ctx.schedule_in_as("shard_msg", latency, move |w: &mut SodaWorld, ctx| {
        deliver_shard_msg(w, ctx, from, to, epoch, msg);
    });
}

fn deliver_shard_msg(
    world: &mut SodaWorld,
    ctx: &mut Ctx<SodaWorld>,
    from: ShardId,
    to: ShardId,
    epoch: u64,
    msg: ShardMsg,
) {
    let now = ctx.now();
    if world.journal_of(to).epoch() != epoch {
        world.shards.msgs_stale += 1;
        world.obs.record(
            now,
            Event::ShardMsgStale {
                to: to.0,
                epoch,
                kind: msg.kind(),
            },
        );
        return;
    }
    world.obs.record(
        now,
        Event::ShardMsgDelivered {
            from: from.0,
            to: to.0,
            kind: msg.kind(),
        },
    );
    match msg {
        ShardMsg::NodeDown {
            service,
            vsn,
            capacity,
            origin_host,
            try_reprime,
        } => {
            recovery::deliver_node_down(
                world,
                ctx,
                service,
                vsn,
                capacity,
                origin_host,
                try_reprime,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_shard_counts_and_labels() {
        assert_eq!(ControlPlaneKind::default(), ControlPlaneKind::Sharded(1));
        assert_eq!(ControlPlaneKind::Sharded(0).shards(), 1);
        assert_eq!(ControlPlaneKind::Sharded(1).shards(), 1);
        assert_eq!(ControlPlaneKind::Sharded(4).shards(), 4);
        assert_eq!(ControlPlaneKind::Sharded(4).label(), "sharded-4");
        assert_eq!(ControlPlaneKind::Sharded(0).label(), "sharded-1");
    }

    #[test]
    fn salt_zero_leaves_the_seed_unsalted() {
        assert_eq!(shard_salt(0), 0);
        assert_ne!(shard_salt(1), shard_salt(2));
    }

    #[test]
    fn plane_defaults_to_one_cell() {
        let p = ShardPlane::new(ControlPlaneKind::default(), ShardPlane::DEFAULT_LATENCY, 10);
        assert_eq!(p.count(), 1);
        assert_eq!(p.cells.len(), 1);
        assert_eq!(p.map.range(ShardId(0)), 0..10);
    }

    #[test]
    fn cells_stripe_id_lanes_and_salt_recovery_seeds() {
        let p = ShardPlane::new(ControlPlaneKind::Sharded(3), ShardPlane::DEFAULT_LATENCY, 9);
        assert_eq!(p.cells.len(), 3);
        for (k, cell) in p.cells.iter().enumerate() {
            let snap = cell.journal.rebuild();
            assert_eq!(snap.next_service, k as u64 + 1);
            assert_eq!(snap.next_vsn, k as u64 + 1);
            let expected = RecoveryConfig::default().seed ^ shard_salt(k as u32);
            assert_eq!(cell.recovery_cfg.seed, expected);
        }
    }
}
