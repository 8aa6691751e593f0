//! The service configuration file — Table 3.
//!
//! "Inside the service switch, a *service configuration file* is created
//! and maintained by the SODA Master. The file records (1) the IP
//! address and (2) the relative capacity of each virtual service node of
//! S." (§3.4) Table 3 shows the format:
//!
//! ```text
//! BackEnd 128.10.9.125 8080 2
//! BackEnd 128.10.9.126 8080 1
//! ```

use std::fmt;
use std::ops::Range;
use std::str::FromStr;

use soda_net::addr::Ipv4Addr;

/// Identifier of one placement cell of the sharded control plane: an
/// index into `ShardPlane::cells`.
///
/// Shard 0 always exists; in a one-cell world it owns the whole fleet.
/// The Master-crash failover drill and `snapshot_world` /
/// `restore_world` act on shard 0 only.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShardId(pub u32);

impl fmt::Display for ShardId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard-{}", self.0)
    }
}

/// Static, balanced partition of the host fleet into placement cells.
///
/// Hosts are identified here by their *index* in the world's daemon
/// roster (registration order), not by `HostId`: cells are contiguous
/// index ranges so a cell's daemons can be borrowed as one slice. The
/// split is the canonical balanced one — with `h` hosts and `n` cells,
/// cell `k` owns indices `[k*h/n, (k+1)*h/n)`, so cell sizes differ by
/// at most one and `n = 1` degenerates to the full range `[0, h)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardMap {
    count: u32,
    hosts: usize,
}

impl ShardMap {
    /// A map of `hosts` roster slots over `count` cells (`count >= 1`).
    pub fn new(count: u32, hosts: usize) -> Self {
        ShardMap {
            count: count.max(1),
            hosts,
        }
    }

    /// Number of placement cells.
    pub fn count(&self) -> u32 {
        self.count
    }

    /// Number of host roster slots covered.
    pub fn hosts(&self) -> usize {
        self.hosts
    }

    /// The contiguous roster-index range owned by `shard`.
    pub fn range(&self, shard: ShardId) -> Range<usize> {
        let n = self.count as usize;
        let k = (shard.0 as usize).min(n - 1);
        (k * self.hosts / n)..((k + 1) * self.hosts / n)
    }

    /// The cell owning roster index `idx`.
    pub fn shard_of_index(&self, idx: usize) -> ShardId {
        let n = self.count as usize;
        if self.hosts == 0 {
            return ShardId(0);
        }
        let idx = idx.min(self.hosts - 1);
        // Inverse of the balanced split: the unique k with
        // k*h/n <= idx < (k+1)*h/n.
        let k = (idx * n + n - 1) / self.hosts.max(1);
        let mut k = k.min(n - 1);
        while k > 0 && self.range(ShardId(k as u32)).start > idx {
            k -= 1;
        }
        while k + 1 < n && self.range(ShardId(k as u32)).end <= idx {
            k += 1;
        }
        ShardId(k as u32)
    }

    /// All cells in order.
    pub fn shards(&self) -> impl Iterator<Item = ShardId> {
        (0..self.count).map(ShardId)
    }
}

/// One directive line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConfigDirective {
    /// Backend address.
    pub ip: Ipv4Addr,
    /// Backend port.
    pub port: u16,
    /// Relative capacity in machine instances `M` ("The capacity is
    /// relative to the number of machine instances M … mapped to this
    /// virtual service node").
    pub capacity: u32,
}

impl fmt::Display for ConfigDirective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BackEnd {} {} {}", self.ip, self.port, self.capacity)
    }
}

/// Parse failure for a configuration file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigParseError {
    /// 1-based line number.
    pub line: usize,
    /// What was wrong.
    pub reason: String,
}

impl fmt::Display for ConfigParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "config line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for ConfigParseError {}

/// The per-service configuration file held inside the switch.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServiceConfigFile {
    directives: Vec<ConfigDirective>,
}

impl ServiceConfigFile {
    /// An empty file.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a `BackEnd` directive.
    pub fn add_backend(&mut self, ip: Ipv4Addr, port: u16, capacity: u32) {
        self.directives.push(ConfigDirective { ip, port, capacity });
    }

    /// Remove the directive for `ip` (service shrink). Returns it.
    pub fn remove_backend(&mut self, ip: Ipv4Addr) -> Option<ConfigDirective> {
        let pos = self.directives.iter().position(|d| d.ip == ip)?;
        Some(self.directives.remove(pos))
    }

    /// Update a backend's capacity in place (in-place resize). Returns
    /// false if no such backend exists.
    pub fn set_capacity(&mut self, ip: Ipv4Addr, capacity: u32) -> bool {
        for d in &mut self.directives {
            if d.ip == ip {
                d.capacity = capacity;
                return true;
            }
        }
        false
    }

    /// The directives in file order.
    pub fn backends(&self) -> &[ConfigDirective] {
        &self.directives
    }

    /// Number of backends.
    pub fn len(&self) -> usize {
        self.directives.len()
    }

    /// True iff no backends are configured.
    pub fn is_empty(&self) -> bool {
        self.directives.is_empty()
    }

    /// Sum of relative capacities — the `n` of `<n, M>` actually served.
    pub fn total_capacity(&self) -> u32 {
        self.directives.iter().map(|d| d.capacity).sum()
    }
}

impl fmt::Display for ServiceConfigFile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.directives {
            writeln!(f, "{d}")?;
        }
        Ok(())
    }
}

impl FromStr for ServiceConfigFile {
    type Err = ConfigParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut out = ServiceConfigFile::new();
        for (i, raw) in s.lines().enumerate() {
            let line_no = i + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let keyword = parts.next().unwrap_or_default();
            if keyword != "BackEnd" {
                return Err(ConfigParseError {
                    line: line_no,
                    reason: format!("unknown directive {keyword:?}"),
                });
            }
            let ip: Ipv4Addr = parts
                .next()
                .ok_or_else(|| ConfigParseError {
                    line: line_no,
                    reason: "missing IP".into(),
                })?
                .parse()
                .map_err(|e| ConfigParseError {
                    line: line_no,
                    reason: format!("{e}"),
                })?;
            let port: u16 = parts
                .next()
                .ok_or_else(|| ConfigParseError {
                    line: line_no,
                    reason: "missing port".into(),
                })?
                .parse()
                .map_err(|_| ConfigParseError {
                    line: line_no,
                    reason: "bad port".into(),
                })?;
            let capacity: u32 = parts
                .next()
                .ok_or_else(|| ConfigParseError {
                    line: line_no,
                    reason: "missing capacity".into(),
                })?
                .parse()
                .map_err(|_| ConfigParseError {
                    line: line_no,
                    reason: "bad capacity".into(),
                })?;
            if parts.next().is_some() {
                return Err(ConfigParseError {
                    line: line_no,
                    reason: "trailing tokens".into(),
                });
            }
            out.add_backend(ip, port, capacity);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn table3() -> ServiceConfigFile {
        let mut f = ServiceConfigFile::new();
        f.add_backend("128.10.9.125".parse().unwrap(), 8080, 2);
        f.add_backend("128.10.9.126".parse().unwrap(), 8080, 1);
        f
    }

    #[test]
    fn renders_table3_exactly() {
        assert_eq!(
            table3().to_string(),
            "BackEnd 128.10.9.125 8080 2\nBackEnd 128.10.9.126 8080 1\n"
        );
    }

    #[test]
    fn table3_semantics() {
        // "the resource requirement of the service is <3, M>, and is
        // provided by two virtual service nodes with capacity of 2M and
        // M, respectively."
        let f = table3();
        assert_eq!(f.len(), 2);
        assert_eq!(f.total_capacity(), 3);
        assert_eq!(f.backends()[0].capacity, 2);
        assert_eq!(f.backends()[1].capacity, 1);
    }

    #[test]
    fn parse_round_trip() {
        let f = table3();
        let parsed: ServiceConfigFile = f.to_string().parse().unwrap();
        assert_eq!(parsed, f);
    }

    #[test]
    fn parse_tolerates_comments_and_blanks() {
        let text =
            "\n# switch config, maintained by the SODA Master\n\nBackEnd 10.0.0.1 80 1\n  \n";
        let f: ServiceConfigFile = text.parse().unwrap();
        assert_eq!(f.len(), 1);
        assert_eq!(f.backends()[0].port, 80);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = "BackEnd 10.0.0.1 80 1\nFrontEnd x"
            .parse::<ServiceConfigFile>()
            .unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.reason.contains("FrontEnd"));
        let err = "BackEnd 999.0.0.1 80 1"
            .parse::<ServiceConfigFile>()
            .unwrap_err();
        assert_eq!(err.line, 1);
        let err = "BackEnd 10.0.0.1 80"
            .parse::<ServiceConfigFile>()
            .unwrap_err();
        assert!(err.reason.contains("capacity"));
        let err = "BackEnd 10.0.0.1 80 1 extra"
            .parse::<ServiceConfigFile>()
            .unwrap_err();
        assert!(err.reason.contains("trailing"));
        let err = "BackEnd 10.0.0.1 99999 1"
            .parse::<ServiceConfigFile>()
            .unwrap_err();
        assert!(err.reason.contains("port"));
    }

    #[test]
    fn mutation_for_resizing() {
        let mut f = table3();
        // In-place capacity adjustment.
        assert!(f.set_capacity("128.10.9.126".parse().unwrap(), 3));
        assert_eq!(f.total_capacity(), 5);
        assert!(!f.set_capacity("1.2.3.4".parse().unwrap(), 9));
        // Node removal.
        let removed = f.remove_backend("128.10.9.125".parse().unwrap()).unwrap();
        assert_eq!(removed.capacity, 2);
        assert_eq!(f.len(), 1);
        assert!(f.remove_backend("128.10.9.125".parse().unwrap()).is_none());
    }

    #[test]
    fn shard_map_single_cell_owns_everything() {
        let m = ShardMap::new(1, 100);
        assert_eq!(m.range(ShardId(0)), 0..100);
        for idx in [0usize, 1, 50, 99] {
            assert_eq!(m.shard_of_index(idx), ShardId(0));
        }
    }

    #[test]
    fn shard_map_ranges_partition_the_roster() {
        for hosts in [1usize, 3, 4, 7, 10, 100, 1000] {
            for count in [1u32, 2, 3, 4, 8] {
                let m = ShardMap::new(count, hosts);
                let mut covered = 0usize;
                let mut prev_end = 0usize;
                for s in m.shards() {
                    let r = m.range(s);
                    assert_eq!(r.start, prev_end, "hosts={hosts} count={count}");
                    prev_end = r.end;
                    covered += r.len();
                    // Balanced: sizes differ by at most one.
                    assert!(r.len() + 1 >= hosts / count as usize);
                    assert!(r.len() <= hosts / count as usize + 1);
                    for idx in r {
                        assert_eq!(m.shard_of_index(idx), s, "idx={idx}");
                    }
                }
                assert_eq!(prev_end, hosts);
                assert_eq!(covered, hosts);
            }
        }
    }

    #[test]
    fn shard_map_clamps_degenerate_inputs() {
        // count is floored to 1, out-of-range indices clamp.
        let m = ShardMap::new(0, 5);
        assert_eq!(m.count(), 1);
        assert_eq!(ShardMap::new(2, 0).shard_of_index(3), ShardId(0));
        let m = ShardMap::new(4, 8);
        assert_eq!(m.shard_of_index(1000), ShardId(3));
        assert_eq!(m.range(ShardId(99)), m.range(ShardId(3)));
    }

    proptest! {
        /// Any generated file round-trips through text.
        #[test]
        fn prop_round_trip(
            entries in proptest::collection::vec((any::<u32>(), 1u16..u16::MAX, 1u32..100), 0..20)
        ) {
            let mut f = ServiceConfigFile::new();
            for &(raw_ip, port, cap) in &entries {
                f.add_backend(Ipv4Addr(raw_ip), port, cap);
            }
            let parsed: ServiceConfigFile = f.to_string().parse().unwrap();
            prop_assert_eq!(parsed, f);
        }
    }
}
