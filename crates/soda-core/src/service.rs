//! Service specifications and records.
//!
//! To host a service the ASP prepares "(1) the image of service S …
//! stored in a machine owned by the ASP; (2) the resource requirement of
//! S … specified as a tuple `<n, M>`" (§3). The spec below carries both,
//! plus what our bootstrap model needs (the system services the app
//! requires and the app's startup weight).

use std::fmt;

use serde::{Serialize, Value};
use soda_hostos::resources::ResourceVector;
use soda_hup::host::HostId;
use soda_vmm::rootfs::RootFsImage;
use soda_vmm::sysservices::{ServiceCatalog, StartupClass, SystemServiceId};
use soda_vmm::vsn::VsnId;

use crate::journal::{array, get_arr, get_bool, get_str, get_u64, object};

/// Identifier of a hosted service.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ServiceId(pub u64);

impl fmt::Display for ServiceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "svc-{}", self.0)
    }
}

/// What the ASP submits with a creation request.
#[derive(Clone, Debug, PartialEq)]
pub struct ServiceSpec {
    /// Service name (also used as guest hostname).
    pub name: String,
    /// The packaged image at the ASP's repository.
    pub image: RootFsImage,
    /// Guest system services the application requires (tailoring input).
    pub required_services: Vec<&'static str>,
    /// Startup weight of the application itself.
    pub app_class: StartupClass,
    /// Number of machine instances `n` of `<n, M>`.
    pub instances: u32,
    /// The machine configuration `M`.
    pub machine: ResourceVector,
    /// TCP port the service listens on in every node.
    pub port: u16,
}

impl ServiceSpec {
    /// Total nominal demand `n × M` (before slow-down inflation).
    pub fn total_demand(&self) -> ResourceVector {
        self.machine * self.instances
    }
}

/// Lifecycle of a hosted service.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServiceState {
    /// Admitted; nodes are priming.
    Creating,
    /// All nodes primed; switch up; serving.
    Running,
    /// A resize is in flight.
    Resizing,
    /// Torn down; terminal.
    TornDown,
}

/// One placed node of a service.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlacedNode {
    /// The HUP host the node lives on.
    pub host: HostId,
    /// The node.
    pub vsn: VsnId,
    /// Machine instances mapped to this node (Table 3's capacity).
    pub capacity: u32,
}

/// The Master's record of a hosted service.
#[derive(Clone, Debug, PartialEq)]
pub struct ServiceRecord {
    /// Service id.
    pub id: ServiceId,
    /// The submitted spec.
    pub spec: ServiceSpec,
    /// Owning ASP.
    pub asp: String,
    /// Current state.
    pub state: ServiceState,
    /// Placed nodes.
    pub nodes: Vec<PlacedNode>,
    /// Nodes that have finished priming (creation completes when this
    /// reaches `nodes.len()`).
    pub nodes_ready: usize,
}

impl ServiceRecord {
    /// Find a placed node by VSN id.
    pub fn node(&self, vsn: VsnId) -> Option<&PlacedNode> {
        self.nodes.iter().find(|n| n.vsn == vsn)
    }

    /// Total placed capacity in machine instances.
    pub fn placed_capacity(&self) -> u32 {
        self.nodes.iter().map(|n| n.capacity).sum()
    }
}

/// Rendered names of the lifecycle states.
const STATE_NAMES: [(ServiceState, &str); 4] = [
    (ServiceState::Creating, "creating"),
    (ServiceState::Running, "running"),
    (ServiceState::Resizing, "resizing"),
    (ServiceState::TornDown, "torn_down"),
];

/// Rendered names of the startup classes.
const CLASS_NAMES: [(StartupClass, &str); 3] = [
    (StartupClass::Trivial, "trivial"),
    (StartupClass::Light, "light"),
    (StartupClass::Heavy, "heavy"),
];

fn name_of<T: PartialEq>(names: &[(T, &'static str)], value: &T) -> &'static str {
    names
        .iter()
        .find(|(v, _)| v == value)
        .map(|&(_, name)| name)
        .expect("every variant is named")
}

fn named<T: Copy>(names: &[(T, &str)], name: &str) -> Option<T> {
    names.iter().find(|(_, n)| *n == name).map(|&(v, _)| v)
}

/// Renders the record flat, spec fields inlined: the keys and their
/// order are the snapshot format, states and classes by lower-case name.
impl Serialize for ServiceRecord {
    fn to_json_value(&self) -> Value {
        let spec = &self.spec;
        let m = &spec.machine;
        let installed = spec.image.installed.iter().map(|id| id.0);
        let nodes = self.nodes.iter().map(|n| {
            object([
                ("host", n.host.0.to_json_value()),
                ("vsn", n.vsn.0.to_json_value()),
                ("capacity", n.capacity.to_json_value()),
            ])
        });
        object([
            ("id", self.id.0.to_json_value()),
            ("asp", self.asp.to_json_value()),
            ("state", name_of(&STATE_NAMES, &self.state).to_json_value()),
            ("name", spec.name.to_json_value()),
            ("image_name", spec.image.name.to_json_value()),
            (
                "image_system_bytes",
                spec.image.system_bytes.to_json_value(),
            ),
            ("image_data_bytes", spec.image.data_bytes.to_json_value()),
            ("image_installed", array(installed)),
            ("image_pristine", spec.image.pristine.to_json_value()),
            ("required_services", spec.required_services.to_json_value()),
            (
                "app_class",
                name_of(&CLASS_NAMES, &spec.app_class).to_json_value(),
            ),
            ("instances", spec.instances.to_json_value()),
            ("cpu_mhz", m.cpu_mhz.to_json_value()),
            ("mem_mb", m.mem_mb.to_json_value()),
            ("disk_mb", m.disk_mb.to_json_value()),
            ("bw_mbps", m.bw_mbps.to_json_value()),
            ("port", spec.port.to_json_value()),
            ("nodes", array(nodes)),
            ("nodes_ready", self.nodes_ready.to_json_value()),
        ])
    }
}

impl ServiceRecord {
    /// Parses the tree [`Serialize`] renders; `None` on a missing or
    /// mistyped field or an unknown state or class. Required-service
    /// names resolve against the standard catalog (the only source of
    /// `&'static str` names); unknown names are dropped, not invented.
    pub fn from_value(v: &Value) -> Option<Self> {
        let catalog = ServiceCatalog::standard();
        let mut required_services = Vec::new();
        for want in get_arr(v, "required_services")? {
            let want = want.as_str()?;
            required_services.extend(catalog.names().find(|n| *n == want));
        }
        let image = RootFsImage {
            name: get_str(v, "image_name")?.to_string(),
            system_bytes: get_u64(v, "image_system_bytes")?,
            data_bytes: get_u64(v, "image_data_bytes")?,
            installed: get_arr(v, "image_installed")?
                .iter()
                .map(|id| Some(SystemServiceId(id.as_u64()? as u16)))
                .collect::<Option<_>>()?,
            pristine: get_bool(v, "image_pristine")?,
        };
        let machine = ResourceVector {
            cpu_mhz: get_u64(v, "cpu_mhz")? as u32,
            mem_mb: get_u64(v, "mem_mb")? as u32,
            disk_mb: get_u64(v, "disk_mb")? as u32,
            bw_mbps: get_u64(v, "bw_mbps")? as u32,
        };
        let spec = ServiceSpec {
            name: get_str(v, "name")?.to_string(),
            image,
            required_services,
            app_class: named(&CLASS_NAMES, get_str(v, "app_class")?)?,
            instances: get_u64(v, "instances")? as u32,
            machine,
            port: get_u64(v, "port")? as u16,
        };
        Some(ServiceRecord {
            id: ServiceId(get_u64(v, "id")?),
            spec,
            asp: get_str(v, "asp")?.to_string(),
            state: named(&STATE_NAMES, get_str(v, "state")?)?,
            nodes: get_arr(v, "nodes")?
                .iter()
                .map(|n| {
                    Some(PlacedNode {
                        host: HostId(get_u64(n, "host")? as u32),
                        vsn: VsnId(get_u64(n, "vsn")?),
                        capacity: get_u64(n, "capacity")? as u32,
                    })
                })
                .collect::<Option<_>>()?,
            nodes_ready: get_u64(v, "nodes_ready")? as usize,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soda_vmm::rootfs::RootFsCatalog;

    fn spec() -> ServiceSpec {
        ServiceSpec {
            name: "web".into(),
            image: RootFsCatalog::new().base_1_0(),
            required_services: vec!["network", "syslogd"],
            app_class: StartupClass::Light,
            instances: 3,
            machine: ResourceVector::TABLE1_EXAMPLE,
            port: 8080,
        }
    }

    #[test]
    fn total_demand_is_n_times_m() {
        let s = spec();
        assert_eq!(s.total_demand(), ResourceVector::TABLE1_EXAMPLE * 3);
    }

    fn record() -> ServiceRecord {
        ServiceRecord {
            id: ServiceId(1),
            spec: spec(),
            asp: "biolab".into(),
            state: ServiceState::Creating,
            nodes: vec![
                PlacedNode {
                    host: HostId(1),
                    vsn: VsnId(10),
                    capacity: 2,
                },
                PlacedNode {
                    host: HostId(2),
                    vsn: VsnId(11),
                    capacity: 1,
                },
            ],
            nodes_ready: 0,
        }
    }

    #[test]
    fn record_accessors() {
        let rec = record();
        assert_eq!(rec.placed_capacity(), 3);
        assert_eq!(rec.node(VsnId(11)).unwrap().host, HostId(2));
        assert!(rec.node(VsnId(99)).is_none());
        assert_eq!(ServiceId(1).to_string(), "svc-1");
    }

    /// Every state and class name renders and parses back; an unknown
    /// required-service name is dropped, an unknown state rejects.
    #[test]
    fn record_survives_render_and_parse() {
        for (state, _) in STATE_NAMES {
            for (class, _) in CLASS_NAMES {
                let mut rec = record();
                rec.state = state;
                rec.spec.app_class = class;
                rec.nodes_ready = 1;
                let text = serde_json::to_string(&rec).unwrap();
                let back = ServiceRecord::from_value(&serde_json::from_str(&text).unwrap());
                assert_eq!(back.as_ref(), Some(&rec));
                assert_eq!(serde_json::to_string(&back.unwrap()).unwrap(), text);
            }
        }
        let text = serde_json::to_string(&record()).unwrap();
        let unknown = text.replace(r#""syslogd""#, r#""no-such-daemon""#);
        let back = ServiceRecord::from_value(&serde_json::from_str(&unknown).unwrap()).unwrap();
        assert_eq!(back.spec.required_services, vec!["network"]);
        let bad_state = text.replace(r#""creating""#, r#""zombie""#);
        assert!(ServiceRecord::from_value(&serde_json::from_str(&bad_state).unwrap()).is_none());
    }
}
