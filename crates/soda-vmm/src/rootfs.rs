//! Root-filesystem images and tailoring.
//!
//! The four images of Table 2, with the structure the tailoring step
//! needs: an image splits into a *system* part (init scripts, daemons,
//! libraries — what customisation prunes) and a *data* part (the
//! application service's files, untouched). "The customized root file
//! system is light-weight and reconfigurable — in many cases it can be
//! mounted in RAM disk for fast bootstrapping." (§4.3)

use std::collections::BTreeSet;

use crate::sysservices::{ServiceCatalog, SystemServiceId};

/// A packaged root filesystem (the ASP ships the service image inside
/// it; "the application service image is also part of the root file
/// system", footnote 4).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RootFsImage {
    /// Image name as shipped, e.g. `"rootfs_base_1.0"`.
    pub name: String,
    /// System part: init scripts, daemons, shared libraries (bytes).
    pub system_bytes: u64,
    /// Data part: the application's executables and data files (bytes).
    pub data_bytes: u64,
    /// System services installed in the image.
    pub installed: BTreeSet<SystemServiceId>,
    /// A pristine image boots as-is — the SODA Daemon does not tailor it
    /// (Table 2's `S_IV` "requires a full-blown Linux server").
    pub pristine: bool,
}

impl RootFsImage {
    /// Total image size on the wire and on disk.
    pub fn total_bytes(&self) -> u64 {
        self.system_bytes + self.data_bytes
    }

    /// Number of installed system services.
    pub fn installed_count(&self) -> usize {
        self.installed.len()
    }
}

/// Result of tailoring an image for a given application service.
#[derive(Clone, Debug)]
pub struct TailoredFs {
    /// Services retained (dependency closure of the app's requirements,
    /// intersected with what the image has installed).
    pub kept: BTreeSet<SystemServiceId>,
    /// Size of the customised root filesystem.
    pub size_bytes: u64,
    /// True if no tailoring was applied (pristine image).
    pub pristine: bool,
}

impl TailoredFs {
    /// RAM-disk cap: a customised filesystem is mounted in RAM when it
    /// fits in half the host's memory, capped at 256 MB (the guest also
    /// needs RAM to run in).
    pub fn ramdisk_eligible(&self, host_mem_mb: u32) -> bool {
        if self.pristine {
            return false;
        }
        let cap_bytes = u64::from(host_mem_mb / 2).min(256) * 1_000_000;
        self.size_bytes <= cap_bytes
    }
}

/// Fixed overhead of any bootable filesystem (kernel modules, /bin,
/// core libraries) that tailoring cannot remove.
pub const BASE_FS_BYTES: u64 = 8_000_000;

/// The catalog of Table 2's images plus a builder for custom ones.
#[derive(Clone, Debug, Default)]
pub struct RootFsCatalog {
    services: ServiceCatalog,
}

impl RootFsCatalog {
    /// A catalog backed by the standard service database.
    pub fn new() -> Self {
        RootFsCatalog {
            services: ServiceCatalog::standard(),
        }
    }

    /// The service database in use.
    pub fn services(&self) -> &ServiceCatalog {
        &self.services
    }

    /// `rootfs_base_1.0` — Table 2's `S_I` image: 29.3 MB, a minimal
    /// bootable system with a web server.
    pub fn base_1_0(&self) -> RootFsImage {
        RootFsImage {
            name: "rootfs_base_1.0".into(),
            system_bytes: 26_000_000,
            data_bytes: 3_300_000,
            installed: self.services.ids_of(&[
                "init", "keytable", "random", "syslogd", "klogd", "network", "inetd", "httpd",
                "crond", "sshd",
            ]),
            pristine: false,
        }
    }

    /// `root_fs_tomrtbt_1.7.205` — `S_II`: 15 MB, the tomsrtbt rescue
    /// floppy image, very few services.
    pub fn tomsrtbt(&self) -> RootFsImage {
        RootFsImage {
            name: "root_fs_tomrtbt_1.7.205".into(),
            system_bytes: 13_000_000,
            data_bytes: 2_000_000,
            installed: self
                .services
                .ids_of(&["init", "keytable", "random", "syslogd", "network", "inetd"]),
            pristine: false,
        }
    }

    /// `root_fs_lfs_4.0` — `S_III`: 400 MB Linux-From-Scratch image; big
    /// because of bundled data, not because of services.
    pub fn lfs_4_0(&self) -> RootFsImage {
        RootFsImage {
            name: "root_fs_lfs_4.0".into(),
            system_bytes: 20_000_000,
            data_bytes: 380_000_000,
            installed: self.services.ids_of(&[
                "init", "keytable", "random", "syslogd", "klogd", "network", "netfs", "portmap",
                "inetd", "sshd", "crond", "httpd",
            ]),
            pristine: false,
        }
    }

    /// `root_fs.rh-7.2-server.pristine.20021012` — `S_IV`: 253 MB
    /// full-blown Red Hat 7.2 server, boots everything it ships.
    pub fn rh72_server_pristine(&self) -> RootFsImage {
        RootFsImage {
            name: "root_fs.rh-7.2-server.pristine.20021012".into(),
            system_bytes: 233_000_000,
            data_bytes: 20_000_000,
            installed: self.services.ids_of(&[
                "init", "keytable", "random", "syslogd", "klogd", "network", "netfs", "portmap",
                "inetd", "xinetd", "sshd", "crond", "atd", "sendmail", "httpd", "nfs", "nfslock",
                "ypbind", "autofs", "apmd", "gpm", "kudzu", "lpd", "identd", "rstatd", "rusersd",
                "rwhod", "snmpd", "mysqld", "anacron",
            ]),
            pristine: true,
        }
    }

    /// A custom image for examples/extensions.
    pub fn custom(
        &self,
        name: impl Into<String>,
        system_bytes: u64,
        data_bytes: u64,
        installed: &[&str],
        pristine: bool,
    ) -> RootFsImage {
        RootFsImage {
            name: name.into(),
            system_bytes,
            data_bytes,
            installed: self.services.ids_of(installed),
            pristine,
        }
    }

    /// Tailor an image for an application needing `required` system
    /// services — the SODA Daemon's customisation step. Pristine images
    /// are returned untailored with every installed service kept.
    ///
    /// ```
    /// use soda_vmm::rootfs::RootFsCatalog;
    /// let catalog = RootFsCatalog::new();
    /// let image = catalog.base_1_0(); // 29.3 MB, 10 installed services
    /// let tailored = catalog.tailor(&image, &["network", "syslogd"]);
    /// // Only the dependency closure survives; the fs shrinks enough to
    /// // mount in a RAM disk on the 768 MB tacoma host.
    /// assert!(tailored.kept.len() < image.installed_count());
    /// assert!(tailored.size_bytes < image.total_bytes());
    /// assert!(tailored.ramdisk_eligible(768));
    /// ```
    pub fn tailor(&self, image: &RootFsImage, required: &[&str]) -> TailoredFs {
        if image.pristine {
            return TailoredFs {
                kept: image.installed.clone(),
                size_bytes: image.total_bytes(),
                pristine: true,
            };
        }
        let closure = self.services.closure(required);
        let kept: BTreeSet<SystemServiceId> =
            closure.intersection(&image.installed).copied().collect();
        let size_bytes = BASE_FS_BYTES + self.services.footprint_bytes(&kept) + image.data_bytes;
        TailoredFs {
            kept,
            size_bytes,
            pristine: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_image_sizes() {
        let c = RootFsCatalog::new();
        assert_eq!(c.base_1_0().total_bytes(), 29_300_000);
        assert_eq!(c.tomsrtbt().total_bytes(), 15_000_000);
        assert_eq!(c.lfs_4_0().total_bytes(), 400_000_000);
        assert_eq!(c.rh72_server_pristine().total_bytes(), 253_000_000);
    }

    #[test]
    fn table2_image_service_counts_order() {
        // The paper: S_I..S_III need tailored subsets, S_IV a full server.
        let c = RootFsCatalog::new();
        assert_eq!(c.tomsrtbt().installed_count(), 6);
        assert_eq!(c.base_1_0().installed_count(), 10);
        assert_eq!(c.lfs_4_0().installed_count(), 12);
        assert_eq!(c.rh72_server_pristine().installed_count(), 30);
        assert!(c.rh72_server_pristine().pristine);
        assert!(!c.base_1_0().pristine);
    }

    #[test]
    fn tailoring_prunes_to_closure() {
        let c = RootFsCatalog::new();
        let img = c.base_1_0();
        let t = c.tailor(&img, &["httpd"]);
        assert!(!t.pristine);
        // Kept: httpd + network + syslogd + init (what the image has of
        // the closure).
        let names: Vec<&str> = t
            .kept
            .iter()
            .map(|id| c.services().get(*id).unwrap().name)
            .collect();
        assert!(names.contains(&"httpd"));
        assert!(names.contains(&"network"));
        assert!(!names.contains(&"sshd"), "sshd must be pruned");
        assert!(!names.contains(&"crond"), "crond must be pruned");
        // Tailored size below original.
        assert!(t.size_bytes < img.total_bytes());
        // But keeps base + data.
        assert!(t.size_bytes >= BASE_FS_BYTES + img.data_bytes);
    }

    #[test]
    fn tailoring_keeps_only_installed_services() {
        let c = RootFsCatalog::new();
        let img = c.tomsrtbt(); // has no httpd
        let t = c.tailor(&img, &["httpd"]);
        let names: Vec<&str> = t
            .kept
            .iter()
            .map(|id| c.services().get(*id).unwrap().name)
            .collect();
        assert!(
            !names.contains(&"httpd"),
            "cannot keep what is not installed"
        );
        assert!(names.contains(&"network"));
    }

    #[test]
    fn pristine_is_not_tailored() {
        let c = RootFsCatalog::new();
        let img = c.rh72_server_pristine();
        let t = c.tailor(&img, &["httpd"]);
        assert!(t.pristine);
        assert_eq!(t.kept.len(), img.installed_count());
        assert_eq!(t.size_bytes, img.total_bytes());
        assert!(!t.ramdisk_eligible(4096), "pristine never RAM-disks");
    }

    #[test]
    fn ramdisk_eligibility() {
        let c = RootFsCatalog::new();
        // Small tailored base image fits in RAM disk on both hosts.
        let t = c.tailor(&c.base_1_0(), &["httpd"]);
        assert!(t.ramdisk_eligible(2048)); // seattle
        assert!(t.ramdisk_eligible(768)); // tacoma
                                          // The 400 MB LFS image exceeds the 256 MB cap everywhere.
        let t3 = c.tailor(&c.lfs_4_0(), &["httpd", "sshd"]);
        assert!(!t3.ramdisk_eligible(2048));
        assert!(!t3.ramdisk_eligible(768));
    }

    #[test]
    fn custom_image_builder() {
        let c = RootFsCatalog::new();
        let img = c.custom(
            "genome_fs",
            20_000_000,
            500_000_000,
            &["httpd", "mysqld"],
            false,
        );
        assert_eq!(img.total_bytes(), 520_000_000);
        assert_eq!(img.installed_count(), 2);
        let t = c.tailor(&img, &["mysqld"]);
        let names: Vec<&str> = t
            .kept
            .iter()
            .map(|id| c.services().get(*id).unwrap().name)
            .collect();
        assert!(names.contains(&"mysqld"));
        assert!(!names.contains(&"httpd"));
    }

    #[test]
    fn tailored_size_monotone_in_requirements() {
        let c = RootFsCatalog::new();
        let img = c.rh72_server_pristine();
        // For a non-pristine copy of the same content:
        let img = RootFsImage {
            pristine: false,
            ..img
        };
        let small = c.tailor(&img, &["inetd"]);
        let large = c.tailor(&img, &["inetd", "httpd", "sendmail", "nfs", "mysqld"]);
        assert!(large.size_bytes > small.size_bytes);
        assert!(large.kept.is_superset(&small.kept));
    }
}
