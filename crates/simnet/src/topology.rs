//! Cluster topology: which servers exist and what they do.
//!
//! Mirrors the paper's Table 2 configurations: BeeGFS / OrangeFS / Lustre
//! run dedicated metadata servers and storage servers (2 + 2 by default);
//! GlusterFS and GPFS run *combined* servers that each hold both data and
//! metadata (2 by default). The scalability study (Figure 11) grows the
//! server count from 4 to 32.

/// What a server stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServerRole {
    /// Dedicated metadata server (BeeGFS `meta`, OrangeFS metadata DB,
    /// Lustre MDS).
    Metadata,
    /// Dedicated data/storage server (BeeGFS `storage`, Lustre OST).
    Storage,
    /// Holds both data and metadata (GlusterFS brick, GPFS NSD).
    Combined,
}

/// One server in the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerSpec {
    /// Dense server index used everywhere (`Process::Server(id)`).
    pub id: u32,
    /// Role.
    pub role: ServerRole,
}

/// The full cluster shape for one test run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterTopology {
    servers: Vec<ServerSpec>,
    clients: u32,
}

impl ClusterTopology {
    /// Build a topology with dedicated metadata and storage servers
    /// (BeeGFS / OrangeFS / Lustre shape).
    pub fn dedicated(meta: u32, storage: u32, clients: u32) -> Self {
        let mut servers = Vec::with_capacity((meta + storage) as usize);
        for id in 0..meta {
            servers.push(ServerSpec {
                id,
                role: ServerRole::Metadata,
            });
        }
        for id in meta..meta + storage {
            servers.push(ServerSpec {
                id,
                role: ServerRole::Storage,
            });
        }
        ClusterTopology { servers, clients }
    }

    /// Build a topology of combined servers (GlusterFS / GPFS shape).
    pub fn combined(servers: u32, clients: u32) -> Self {
        ClusterTopology {
            servers: (0..servers)
                .map(|id| ServerSpec {
                    id,
                    role: ServerRole::Combined,
                })
                .collect(),
            clients,
        }
    }

    /// The paper's default: 2 metadata + 2 storage, 2 clients.
    pub fn paper_dedicated_default() -> Self {
        Self::dedicated(2, 2, 2)
    }

    /// The paper's default for combined-server PFS: 2 servers, 2 clients.
    pub fn paper_combined_default() -> Self {
        Self::combined(2, 2)
    }

    /// All servers.
    pub fn servers(&self) -> &[ServerSpec] {
        &self.servers
    }

    /// Total server count.
    pub fn server_count(&self) -> u32 {
        self.servers.len() as u32
    }

    /// Ids of servers that can hold metadata.
    pub fn metadata_servers(&self) -> Vec<u32> {
        self.servers
            .iter()
            .filter(|s| matches!(s.role, ServerRole::Metadata | ServerRole::Combined))
            .map(|s| s.id)
            .collect()
    }

    /// Ids of servers that can hold data.
    pub fn storage_servers(&self) -> Vec<u32> {
        self.servers
            .iter()
            .filter(|s| matches!(s.role, ServerRole::Storage | ServerRole::Combined))
            .map(|s| s.id)
            .collect()
    }

    /// Role of a server id.
    pub fn role(&self, id: u32) -> Option<ServerRole> {
        self.servers.iter().find(|s| s.id == id).map(|s| s.role)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedicated_shape() {
        let t = ClusterTopology::dedicated(2, 2, 2);
        assert_eq!(t.server_count(), 4);
        assert_eq!(t.metadata_servers(), vec![0, 1]);
        assert_eq!(t.storage_servers(), vec![2, 3]);
        assert_eq!(t.role(0), Some(ServerRole::Metadata));
        assert_eq!(t.role(3), Some(ServerRole::Storage));
        assert_eq!(t.role(9), None);
    }

    #[test]
    fn combined_shape() {
        let t = ClusterTopology::combined(2, 1);
        assert_eq!(t.metadata_servers(), vec![0, 1]);
        assert_eq!(t.storage_servers(), vec![0, 1]);
    }

    #[test]
    fn paper_defaults_match_table2() {
        assert_eq!(ClusterTopology::paper_dedicated_default().server_count(), 4);
        assert_eq!(ClusterTopology::paper_combined_default().server_count(), 2);
    }

    #[test]
    fn scaling_shapes_for_figure11() {
        for n in [4u32, 6, 8, 16, 32] {
            let t = ClusterTopology::dedicated(n / 2, n / 2, 2);
            assert_eq!(t.server_count(), n);
        }
    }
}
