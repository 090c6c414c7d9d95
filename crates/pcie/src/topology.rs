//! Array network topology and fabric-wide parameters.

use triplea_sim::Nanos;

use crate::link::LinkGen;

/// Identity of one cluster: which switch it hangs off, and its port index
/// on that switch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClusterId {
    /// Switch (root-complex port) index.
    pub switch: u32,
    /// Downstream-port index within the switch.
    pub index: u32,
}

impl std::fmt::Display for ClusterId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}c{}", self.switch, self.index)
    }
}

/// Shape of the PCI-E network: `switches` × `clusters_per_switch`
/// (the paper's baseline is 4×16; sensitivity sweeps 4×8 … 4×20).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Topology {
    /// Number of switches, each on its own root-complex port.
    pub switches: u32,
    /// Clusters (endpoint devices) per switch.
    pub clusters_per_switch: u32,
}

impl Default for Topology {
    fn default() -> Self {
        Topology {
            switches: 4,
            clusters_per_switch: 16,
        }
    }
}

impl Topology {
    /// Total clusters in the array.
    pub fn total_clusters(&self) -> u32 {
        self.switches * self.clusters_per_switch
    }

    /// Flattens a cluster ID to a dense index in `[0, total_clusters)`.
    pub fn global_index(&self, id: ClusterId) -> u32 {
        id.switch * self.clusters_per_switch + id.index
    }

    /// Inverse of [`Topology::global_index`].
    ///
    /// # Panics
    ///
    /// Panics if `idx >= total_clusters()`.
    pub fn cluster_from_global(&self, idx: u32) -> ClusterId {
        assert!(idx < self.total_clusters(), "cluster index out of range");
        ClusterId {
            switch: idx / self.clusters_per_switch,
            index: idx % self.clusters_per_switch,
        }
    }

    /// Iterates all cluster IDs in switch-major order.
    pub fn iter_clusters(&self) -> impl Iterator<Item = ClusterId> + '_ {
        let cps = self.clusters_per_switch;
        (0..self.switches).flat_map(move |s| {
            (0..cps).map(move |c| ClusterId {
                switch: s,
                index: c,
            })
        })
    }

    /// Cluster IDs sharing a switch with `id`, excluding `id` itself —
    /// the candidate set for Triple-A's data migration (§6.1: data never
    /// migrates across switches).
    pub fn siblings(&self, id: ClusterId) -> impl Iterator<Item = ClusterId> + '_ {
        let sw = id.switch;
        let idx = id.index;
        (0..self.clusters_per_switch)
            .filter(move |&c| c != idx)
            .map(move |c| ClusterId {
                switch: sw,
                index: c,
            })
    }
}

/// Fabric-wide PCI-E parameters (paper §5.1 plus PCI-E 3.0 spec values).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PcieParams {
    /// Link generation for every link in the fabric.
    pub gen: LinkGen,
    /// Lanes per endpoint-facing link.
    pub lanes: u32,
    /// Lanes on each switch↔root-complex uplink. Uplinks aggregate a
    /// whole switch's traffic, so real arrays provision them wider
    /// (×16) than the per-endpoint links (×4).
    pub uplink_lanes: u32,
    /// Root-complex routing latency per packet.
    pub rc_route_ns: Nanos,
    /// Switch routing latency per packet.
    pub switch_route_ns: Nanos,
    /// Endpoint device-layer latency per packet (packet dis/assembly,
    /// §3.4).
    pub ep_device_ns: Nanos,
    /// Per-link propagation delay.
    pub propagation_ns: Nanos,
    /// Root-complex queue entries (650–1000 in the paper; default 800).
    pub rc_queue: usize,
    /// Virtual-channel buffer entries per switch downstream port.
    pub switch_queue: usize,
    /// Endpoint downstream buffer entries.
    pub ep_queue: usize,
}

impl Default for PcieParams {
    fn default() -> Self {
        PcieParams {
            gen: LinkGen::Gen3,
            lanes: 4,
            uplink_lanes: 16,
            rc_route_ns: 200,
            switch_route_ns: 150,
            ep_device_ns: 300,
            propagation_ns: 10,
            rc_queue: 800,
            switch_queue: 64,
            ep_queue: 64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_4x16() {
        let t = Topology::default();
        assert_eq!(t.total_clusters(), 64);
    }

    #[test]
    fn global_index_roundtrip() {
        let t = Topology {
            switches: 4,
            clusters_per_switch: 20,
        };
        for idx in 0..t.total_clusters() {
            let id = t.cluster_from_global(idx);
            assert_eq!(t.global_index(id), idx);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn cluster_from_global_bounds() {
        Topology::default().cluster_from_global(64);
    }

    #[test]
    fn iter_visits_every_cluster_once() {
        let t = Topology {
            switches: 2,
            clusters_per_switch: 3,
        };
        let ids: Vec<_> = t.iter_clusters().collect();
        assert_eq!(ids.len(), 6);
        let mut uniq = ids.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), 6);
    }

    #[test]
    fn siblings_stay_on_switch() {
        let t = Topology::default();
        let id = ClusterId {
            switch: 2,
            index: 5,
        };
        let sibs: Vec<_> = t.siblings(id).collect();
        assert_eq!(sibs.len(), 15);
        assert!(sibs.iter().all(|s| s.switch == 2 && s.index != 5));
    }

    #[test]
    fn cluster_id_display() {
        assert_eq!(
            ClusterId {
                switch: 1,
                index: 9
            }
            .to_string(),
            "s1c9"
        );
    }

    #[test]
    fn default_params_match_paper() {
        let p = PcieParams::default();
        assert_eq!(p.gen, LinkGen::Gen3);
        assert!((650..=1000).contains(&p.rc_queue));
    }
}
