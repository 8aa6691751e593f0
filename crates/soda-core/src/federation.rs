//! Wide-area HUP federation — the §3.5 extension.
//!
//! "One way to construct a wide-area HUP is to *federate* multiple local
//! HUPs, each having its own SODA Agent and Master." This module builds
//! exactly that: a set of sites, each a complete local HUP
//! (Agent + Master + Daemons), joined by WAN links. A federated creation
//! request tries the preferred site first and falls over to peers in
//! ascending WAN-distance order; the chosen site's Master handles
//! everything else locally. Image downloads that cross the WAN pay the
//! WAN link's bandwidth and latency.

use soda_hup::daemon::SodaDaemon;
use soda_net::link::LinkSpec;
use soda_sim::{SimDuration, SimTime};

use crate::api::CreationReply;
use crate::error::SodaError;
use crate::master::SodaMaster;
use crate::service::{ServiceId, ServiceSpec};

/// Identifier of a federation site.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SiteId(pub u32);

/// One local HUP in the federation.
pub struct Site {
    /// Site id.
    pub id: SiteId,
    /// Site name, e.g. `"purdue"`.
    pub name: String,
    /// The site's own Master.
    pub master: SodaMaster,
    /// The site's hosts.
    pub daemons: Vec<SodaDaemon>,
}

/// Where a federated service ended up.
#[derive(Debug)]
pub struct FederatedReply {
    /// The site that admitted the service.
    pub site: SiteId,
    /// The local reply.
    pub reply: CreationReply,
    /// Extra WAN transfer time paid for the image (zero when placed at
    /// the preferred site).
    pub wan_transfer: SimDuration,
}

/// A federation of local HUPs.
pub struct Federation {
    sites: Vec<Site>,
    /// `wan[i][j]` = link between site i and site j (by index).
    wan: Vec<Vec<Option<LinkSpec>>>,
}

impl Federation {
    /// A federation over the given sites, initially with no WAN links.
    pub fn new(sites: Vec<Site>) -> Self {
        let n = sites.len();
        Federation {
            sites,
            wan: vec![vec![None; n]; n],
        }
    }

    /// Connect two sites with a symmetric WAN link.
    pub fn connect(&mut self, a: SiteId, b: SiteId, link: LinkSpec) {
        let ia = self.index_of(a).expect("site a exists");
        let ib = self.index_of(b).expect("site b exists");
        self.wan[ia][ib] = Some(link);
        self.wan[ib][ia] = Some(link);
    }

    fn index_of(&self, id: SiteId) -> Option<usize> {
        self.sites.iter().position(|s| s.id == id)
    }

    /// Number of sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// True iff the federation has no sites.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Access a site.
    pub fn site(&self, id: SiteId) -> Option<&Site> {
        self.sites.iter().find(|s| s.id == id)
    }

    /// Mutable site access.
    pub fn site_mut(&mut self, id: SiteId) -> Option<&mut Site> {
        self.sites.iter_mut().find(|s| s.id == id)
    }

    /// Candidate sites for a request preferring `preferred`: the
    /// preferred site first, then connected peers by ascending WAN
    /// latency. Unconnected sites are not candidates (autonomous
    /// management: no route, no placement).
    pub fn candidate_sites(&self, preferred: SiteId) -> Vec<SiteId> {
        let Some(pi) = self.index_of(preferred) else {
            return Vec::new();
        };
        let mut peers: Vec<(SimDuration, SiteId)> = self.wan[pi]
            .iter()
            .enumerate()
            .filter_map(|(j, link)| link.map(|l| (l.latency, self.sites[j].id)))
            .collect();
        peers.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut out = vec![preferred];
        out.extend(peers.into_iter().map(|(_, id)| id));
        out
    }

    /// Create a service somewhere in the federation, preferring
    /// `preferred`. Placement falls over site-by-site on admission
    /// rejection; other errors abort. The `wan_transfer` in the reply
    /// accounts the extra image-shipping time to a remote site.
    pub fn create_service(
        &mut self,
        spec: ServiceSpec,
        asp: &str,
        preferred: SiteId,
        now: SimTime,
    ) -> Result<FederatedReply, SodaError> {
        let candidates = self.candidate_sites(preferred);
        if candidates.is_empty() {
            return Err(SodaError::BadRequest(format!("unknown site {preferred:?}")));
        }
        let image_bytes = spec.image.total_bytes();
        let pi = self.index_of(preferred).expect("checked");
        let mut last_err = None;
        for site_id in candidates {
            let si = self.index_of(site_id).expect("candidate exists");
            let wan_transfer = if si == pi {
                SimDuration::ZERO
            } else {
                self.wan[pi][si]
                    .expect("candidates are connected")
                    .transfer_time(image_bytes)
            };
            let site = &mut self.sites[si];
            match site
                .master
                .create_service_now(spec.clone(), asp, &mut site.daemons, now)
            {
                Ok(mut reply) => {
                    reply.creation_time += wan_transfer;
                    return Ok(FederatedReply {
                        site: site_id,
                        reply,
                        wan_transfer,
                    });
                }
                Err(e @ SodaError::AdmissionRejected { .. }) => {
                    last_err = Some(e);
                    continue;
                }
                Err(e) => return Err(e),
            }
        }
        Err(last_err.unwrap_or_else(|| SodaError::BadRequest("no candidate site".into())))
    }

    /// Tear down a federated service at its site.
    pub fn teardown(&mut self, site: SiteId, service: ServiceId) -> Result<(), SodaError> {
        let s = self
            .site_mut(site)
            .ok_or_else(|| SodaError::BadRequest(format!("unknown site {site:?}")))?;
        s.master.teardown(service, &mut s.daemons)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soda_hostos::resources::ResourceVector;
    use soda_hup::host::{HostId, HupHost};
    use soda_net::pool::IpPool;
    use soda_vmm::rootfs::RootFsCatalog;
    use soda_vmm::sysservices::StartupClass;

    fn site(id: u32, name: &str, hosts: u32) -> Site {
        let daemons = (0..hosts)
            .map(|i| {
                let base = 10 + id * 50 + i * 10;
                SodaDaemon::new(HupHost::seattle(
                    HostId(id * 100 + i),
                    IpPool::new(format!("10.{id}.{base}.0").parse().unwrap(), 8),
                ))
            })
            .collect();
        Site {
            id: SiteId(id),
            name: name.into(),
            master: SodaMaster::new(),
            daemons,
        }
    }

    fn spec(n: u32) -> ServiceSpec {
        ServiceSpec {
            name: "web".into(),
            image: RootFsCatalog::new().base_1_0(),
            required_services: vec!["network"],
            app_class: StartupClass::Light,
            instances: n,
            machine: ResourceVector::TABLE1_EXAMPLE,
            port: 8080,
        }
    }

    fn federation() -> Federation {
        let mut f = Federation::new(vec![
            site(1, "purdue", 1),
            site(2, "wisconsin", 2),
            site(3, "berkeley", 2),
        ]);
        f.connect(
            SiteId(1),
            SiteId(2),
            LinkSpec::wan(10.0, soda_sim::SimDuration::from_millis(20)),
        );
        f.connect(
            SiteId(1),
            SiteId(3),
            LinkSpec::wan(10.0, soda_sim::SimDuration::from_millis(60)),
        );
        f
    }

    #[test]
    fn preferred_site_wins_when_it_fits() {
        let mut f = federation();
        let r = f
            .create_service(spec(2), "asp", SiteId(1), SimTime::ZERO)
            .unwrap();
        assert_eq!(r.site, SiteId(1));
        assert_eq!(r.wan_transfer, SimDuration::ZERO);
    }

    #[test]
    fn failover_prefers_nearest_peer() {
        let mut f = federation();
        // Site 1 has one seattle host: 3 inflated instances fit, 4 don't.
        let r = f
            .create_service(spec(4), "asp", SiteId(1), SimTime::ZERO)
            .unwrap();
        assert_eq!(r.site, SiteId(2), "wisconsin is 20 ms away, berkeley 60 ms");
        // The WAN shipping time for 29.3 MB at 10 Mbps ≈ 24 s.
        let secs = r.wan_transfer.as_secs_f64();
        assert!((20.0..30.0).contains(&secs), "wan transfer {secs}");
    }

    #[test]
    fn unconnected_site_is_not_a_candidate() {
        let mut f = Federation::new(vec![site(1, "a", 1), site(2, "b", 2)]);
        // No WAN links: only the preferred site is tried.
        assert_eq!(f.candidate_sites(SiteId(1)), vec![SiteId(1)]);
        let err = f
            .create_service(spec(4), "asp", SiteId(1), SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, SodaError::AdmissionRejected { .. }));
    }

    #[test]
    fn federation_wide_rejection_when_nothing_fits() {
        let mut f = federation();
        let err = f
            .create_service(spec(60), "asp", SiteId(1), SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, SodaError::AdmissionRejected { .. }));
    }

    #[test]
    fn teardown_routes_to_owning_site() {
        let mut f = federation();
        let r = f
            .create_service(spec(4), "asp", SiteId(1), SimTime::ZERO)
            .unwrap();
        f.teardown(r.site, r.reply.service).unwrap();
        // Torn down: capacity back, a second teardown errors.
        assert!(f.teardown(r.site, r.reply.service).is_err());
        assert!(f.teardown(SiteId(9), r.reply.service).is_err());
    }

    #[test]
    fn candidate_order_by_latency() {
        let f = federation();
        assert_eq!(
            f.candidate_sites(SiteId(1)),
            vec![SiteId(1), SiteId(2), SiteId(3)]
        );
        assert_eq!(f.candidate_sites(SiteId(2)), vec![SiteId(2), SiteId(1)]);
        assert!(f.candidate_sites(SiteId(99)).is_empty());
        assert_eq!(f.len(), 3);
        assert!(!f.is_empty());
    }
}
