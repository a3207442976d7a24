//! Run parameters: the paper's system configuration and sensitivity
//! knobs (§6.1, §6.2), and the configuration file (§5) that sets the
//! cluster shape here and the checker's models in a [`CheckConfig`].

use paracrash::{CheckConfig, ExploreMode, Model};
use pfs::Placement;

/// Everything that parameterizes one test-program run.
#[derive(Debug, Clone)]
pub struct Params {
    /// Stripe size in bytes (Table 2: 128 KiB default; Figure 11 shrinks
    /// it as servers grow).
    pub stripe: u64,
    /// Dedicated metadata servers (2 by default).
    pub meta: u32,
    /// Dedicated storage servers (2 by default).
    pub storage: u32,
    /// Application clients (2 by default; bug 9's sensitivity sweeps
    /// 1–10).
    pub clients: u32,
    /// Dataset dimension `dims × dims` (200 default; bug 14 appears
    /// between 800 and 1000).
    pub dims: u64,
    /// Datasets per group in the preamble (2 default, swept 1–8).
    pub datasets_per_group: u32,
    /// WAL page count ("overwrites the file content with multiple
    /// pages").
    pub wal_pages: u32,
    /// HDF5 data-segment size (the library's allocation granularity;
    /// scaled down together with stripes in the quick profile).
    pub h5_seg: u64,
    /// Placement pins expressing the file-distribution sensitivity.
    pub placement: Placement,
    /// Local-FS journaling mode of the servers' backing stores. `None`
    /// keeps each model's paper deployment (data journaling); the
    /// fuzzer's journaling-mode sweep sets it explicitly. GPFS journals
    /// at the block layer and ignores this knob.
    pub journal: Option<simfs::JournalMode>,
}

impl Params {
    /// The paper's evaluation defaults (Table 2 / §6.2).
    pub fn paper() -> Self {
        Params {
            stripe: 128 * 1024,
            meta: 2,
            storage: 2,
            clients: 2,
            dims: 200,
            datasets_per_group: 2,
            wal_pages: 2,
            h5_seg: 64 * 1024,
            placement: Placement::new(),
            journal: None,
        }
    }

    /// A scaled-down configuration with the same *shape* (files still
    /// stripe across servers, B-trees still split) for fast tests: the
    /// stripe shrinks with the data so every cross-server hazard
    /// remains.
    pub fn quick() -> Self {
        Params {
            stripe: 2048,
            meta: 2,
            storage: 2,
            clients: 2,
            dims: 24, // 24×24×8 = 4608 B > stripe ⇒ cross-server
            datasets_per_group: 2,
            wal_pages: 2,
            h5_seg: 1024,
            placement: Placement::new(),
            journal: None,
        }
    }

    /// The dimension at which the dataset B-tree splits during the
    /// doubled resize but not at creation — the bug-14 sensitivity
    /// window (the paper's 800×800 → 1000×1000).
    pub fn split_dims(&self) -> u64 {
        // The leaf holds 96 segments; pick dims so that
        // dims²·8 < 96·seg ≤ (2·dims)²·8.
        let capacity = 96 * self.h5_seg / 8;
        let safe = (capacity as f64).sqrt() as u64;
        (safe / 2) + 1
    }

    /// Override the placement pins.
    pub fn with_placement(mut self, placement: Placement) -> Self {
        self.placement = placement;
        self
    }

    /// Override the dataset dimension.
    pub fn with_dims(mut self, dims: u64) -> Self {
        self.dims = dims;
        self
    }

    /// Override the client count.
    pub fn with_clients(mut self, clients: u32) -> Self {
        self.clients = clients;
        self
    }

    /// Override the server counts (Figure 11's scalability sweep).
    pub fn with_servers(mut self, meta: u32, storage: u32) -> Self {
        self.meta = meta;
        self.storage = storage;
        self
    }

    /// Override the stripe size.
    pub fn with_stripe(mut self, stripe: u64) -> Self {
        self.stripe = stripe;
        self
    }

    /// Override the servers' local-FS journaling mode.
    pub fn with_journal(mut self, journal: simfs::JournalMode) -> Self {
        self.journal = Some(journal);
        self
    }

    /// WAL page size in bytes (fixed small pages; the count is the
    /// knob).
    pub fn wal_page_size(&self) -> u64 {
        64
    }

    /// The ranks participating in collective H5 calls.
    pub fn ranks(&self) -> Vec<u32> {
        (0..self.clients.max(1)).collect()
    }

    /// Read a configuration file: `key = value` lines, `#` comments.
    /// The cluster keys `stripe_size`, `meta_servers`, `storage_servers`
    /// and `clients` override this profile's values (an omitted key keeps
    /// the profile's); `pfs_model`, `h5_model`, `k`, `mode` and
    /// `h5clear_increase_eof` configure the checker, starting from
    /// [`CheckConfig::paper_default`]. Any other key is rejected: torn
    /// writes and `explain` are per-run choices, not configuration.
    pub fn configure(mut self, text: &str) -> Result<(Params, CheckConfig), String> {
        let mut cfg = CheckConfig::paper_default();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {}: expected key = value", lineno + 1))?;
            let (key, value) = (key.trim(), value.trim());
            let bad = |what: &str| format!("line {}: bad {what}: {value}", lineno + 1);
            match key {
                "pfs_model" => cfg.pfs_model = Model::parse(value).ok_or_else(|| bad("model"))?,
                "h5_model" => cfg.h5_model = Model::parse(value).ok_or_else(|| bad("model"))?,
                "k" => cfg.k = value.parse().map_err(|_| bad("k"))?,
                "mode" => cfg.mode = ExploreMode::parse(value).ok_or_else(|| bad("mode"))?,
                "h5clear_increase_eof" => {
                    cfg.clear_opts.increase_eof = value.parse().map_err(|_| bad("bool"))?
                }
                "stripe_size" => self.stripe = value.parse().map_err(|_| bad("size"))?,
                "meta_servers" => self.meta = value.parse().map_err(|_| bad("count"))?,
                "storage_servers" => self.storage = value.parse().map_err(|_| bad("count"))?,
                "clients" => self.clients = value.parse().map_err(|_| bad("count"))?,
                other => return Err(format!("line {}: unknown key {other}", lineno + 1)),
            }
        }
        Ok((self, cfg))
    }

    /// This profile and `cfg` in the configuration-file format.
    pub fn render_config(&self, cfg: &CheckConfig) -> String {
        format!(
            "pfs_model = {}\nh5_model = {}\nk = {}\nmode = {}\n\
             h5clear_increase_eof = {}\nstripe_size = {}\n\
             meta_servers = {}\nstorage_servers = {}\nclients = {}\n",
            cfg.pfs_model.as_str(),
            cfg.h5_model.as_str(),
            cfg.k,
            cfg.mode.as_str(),
            cfg.clear_opts.increase_eof,
            self.stripe,
            self.meta,
            self.storage,
            self.clients,
        )
    }
}

impl Default for Params {
    fn default() -> Self {
        Params::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_table2() {
        let p = Params::paper();
        assert_eq!(p.stripe, 128 * 1024);
        assert_eq!((p.meta, p.storage, p.clients), (2, 2, 2));
        assert_eq!(p.dims, 200);
        assert_eq!(p.datasets_per_group, 2);
    }

    #[test]
    fn quick_keeps_cross_server_shape() {
        let p = Params::quick();
        assert!(p.dims * p.dims * 8 > p.stripe, "quick datasets must stripe");
    }

    #[test]
    fn builder_overrides() {
        let p = Params::quick()
            .with_dims(48)
            .with_clients(4)
            .with_servers(4, 4);
        assert_eq!(p.dims, 48);
        assert_eq!(p.ranks(), vec![0, 1, 2, 3]);
        assert_eq!((p.meta, p.storage), (4, 4));
    }

    #[test]
    fn configure_roundtrips_the_rendered_file() {
        let (cfg, p) = (
            CheckConfig::paper_default(),
            Params::paper().with_servers(8, 3),
        );
        let (q, parsed) = Params::quick().configure(&p.render_config(&cfg)).unwrap();
        assert_eq!(
            (q.stripe, q.meta, q.storage, q.clients),
            (p.stripe, 8, 3, 2)
        );
        assert_eq!((parsed.pfs_model, parsed.mode), (cfg.pfs_model, cfg.mode));
    }

    #[test]
    fn configure_overrides_only_what_the_file_sets() {
        let text = "# test config\npfs_model = commit\nk = 2\nmode = brute-force\n\
                    h5clear_increase_eof = true\nstripe_size = 512\n";
        let (p, cfg) = Params::quick().configure(text).unwrap();
        assert_eq!(cfg.pfs_model, Model::Commit);
        assert_eq!(cfg.k, 2);
        assert_eq!(cfg.mode, ExploreMode::BruteForce);
        assert!(cfg.clear_opts.increase_eof);
        assert_eq!(p.stripe, 512);
        let quick = Params::quick();
        assert_eq!(
            (p.meta, p.storage, p.clients, p.dims),
            (2, 2, 2, quick.dims)
        );
        let (p, _) = Params::paper().configure("clients = 5").unwrap();
        assert_eq!((p.stripe, p.clients), (128 * 1024, 5));
    }

    #[test]
    fn configure_rejects_garbage() {
        let configure = |text: &str| Params::quick().configure(text).map(|_| ());
        assert!(configure("pfs_model = wat").is_err());
        assert!(configure("unknown_key = 1").is_err());
        // The golden tables are sized by the check itself: no cap to set.
        let err = configure("replay_cache_cap = 16").unwrap_err();
        assert!(err.contains("unknown key replay_cache_cap"), "{err}");
        // Per-run choices are flags, not configuration.
        for key in ["faults = seed=7", "torn_seed = 7", "explain = true"] {
            assert!(configure(key).is_err(), "{key}");
        }
        assert!(configure("no equals sign").is_err());
        // Two modes, one spelling each: pruning alone is not a mode.
        for mode in ["pruning", "bruteforce"] {
            let err = configure(&format!("mode = {mode}")).unwrap_err();
            assert!(err.contains(&format!("bad mode: {mode}")), "{err}");
        }
    }
}
