//! Deterministic fault injection for the simulated cluster.
//!
//! ParaCrash's clean replay (§4) delivers every RPC instantly and in
//! order; real deployments lose, duplicate and delay messages and heal
//! partitions, and the client libraries mask all of that with retries.
//! This module is the seeded fault plane that widens the recorded trace
//! with exactly those masked events: a [`FaultPlane`] draws a
//! [`Fate`] for every message from a [`pc_rt::rng`] stream seeded by
//! [`FaultConfig::seed`], and [`RpcNet`](crate::RpcNet) turns the fate
//! into *real trace events* — lost sends, annotated retries, duplicate
//! deliveries — while keeping the live server state bit-identical to a
//! fault-free run.
//!
//! # Why delivery faults are trace-visible but state-invariant
//!
//! Every PFS the paper studies runs its RPCs over an at-most-once
//! transport: clients retry timed-out requests until the server
//! acknowledges, and servers deduplicate replayed requests, so the
//! *persistent effect* of a call is the same whether its messages took
//! one attempt or five. The fault plane models that contract: a dropped
//! request becomes `n` lost sends followed by a successful retry whose
//! `recv` carries the causal edge, a duplicate becomes a second
//! (deduplicated) delivery, and a delay annotates the message. The
//! recorded causal graph — and hence the crash-state space — gains the
//! retry events; the golden states do not move. That is what makes the
//! chaos suite's "no false positives from retries alone" property hold
//! by construction. State-*visible* faults are injected at the disk
//! layer instead ([`FaultConfig::torn_writes`], applied at crash points
//! by the checker).
//!
//! Determinism is load-bearing: the plane owns its own
//! [`pc_rt::rng::Rng`] and every fate is drawn on the (single
//! threaded) dispatch path, so one seed yields one trace regardless of
//! `PC_THREADS` or wall-clock time.

use pc_rt::rng::Rng;

/// Every knob of the cross-layer fault plane.
///
/// The default ([`FaultConfig::disabled`]) injects nothing and consumes
/// no randomness, so a zero-fault run is bit-identical to a build
/// without the plane.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Seed for the fault stream. The same seed reproduces the same
    /// faults on every platform and thread count.
    pub seed: u64,
    /// Probability a message is dropped (and retried) per attempt.
    pub drop_rate: f64,
    /// Probability a delivered message is duplicated.
    pub dup_rate: f64,
    /// Probability a delivered message is delayed (annotated; delivery
    /// order within the synchronous simulation is unchanged).
    pub delay_rate: f64,
    /// Upper bound on retry attempts for one message — after this many
    /// lost sends the transport delivers (the at-most-once contract:
    /// clients retry until acknowledged, so delivery is eventual).
    pub max_retries: u32,
    /// Partitioned server id: messages to/from it are dropped first.
    pub partition: Option<u32>,
    /// How many messages the partition swallows before it heals.
    pub partition_heal_after: u32,
    /// Disk-layer fault: torn multi-block writes at crash points
    /// (applied by the checker when materializing crash states, not by
    /// the RPC plane).
    pub torn_writes: bool,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::disabled()
    }
}

impl FaultConfig {
    /// No faults at all — the configuration every pre-existing code
    /// path gets. Draws nothing from any RNG.
    pub fn disabled() -> FaultConfig {
        FaultConfig {
            seed: 0,
            drop_rate: 0.0,
            dup_rate: 0.0,
            delay_rate: 0.0,
            max_retries: 3,
            partition: None,
            partition_heal_after: 0,
            torn_writes: false,
        }
    }

    /// A ready-made chaos profile: moderate drop/dup/delay rates plus
    /// torn writes, all driven by `seed`.
    pub fn chaos(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            drop_rate: 0.2,
            dup_rate: 0.1,
            delay_rate: 0.1,
            max_retries: 3,
            partition: None,
            partition_heal_after: 0,
            torn_writes: true,
        }
    }

    /// `true` if any fault can actually fire.
    pub fn enabled(&self) -> bool {
        self.drop_rate > 0.0
            || self.dup_rate > 0.0
            || self.delay_rate > 0.0
            || self.partition.is_some()
            || self.torn_writes
    }

    /// Parse a `--faults` spec: comma-separated `key=value` pairs with
    /// keys `seed`, `drop`, `dup`, `delay`, `retries`, `partition`
    /// (`server` or `server:heal_after`) and `torn` (bool). The string
    /// `chaos` alone selects [`FaultConfig::chaos`] with seed 0.
    ///
    /// ```
    /// use simnet::FaultConfig;
    /// let f = FaultConfig::parse_spec("seed=7,drop=0.2,torn=true").unwrap();
    /// assert_eq!(f.seed, 7);
    /// assert!(f.torn_writes && f.enabled());
    /// ```
    pub fn parse_spec(spec: &str) -> Result<FaultConfig, String> {
        let spec = spec.trim();
        if spec.eq_ignore_ascii_case("chaos") {
            return Ok(FaultConfig::chaos(0));
        }
        let mut cfg = FaultConfig::disabled();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("bad fault spec element (want key=value): {part}"))?;
            let bad = |what: &str| format!("bad fault {what}: {value}");
            let rate = |v: &str| -> Result<f64, String> {
                let r: f64 = v.parse().map_err(|_| bad("rate"))?;
                if !(0.0..=1.0).contains(&r) {
                    return Err(bad("rate (must be in [0, 1])"));
                }
                Ok(r)
            };
            match key.trim() {
                "seed" => cfg.seed = value.parse().map_err(|_| bad("seed"))?,
                "drop" => cfg.drop_rate = rate(value)?,
                "dup" => cfg.dup_rate = rate(value)?,
                "delay" => cfg.delay_rate = rate(value)?,
                "retries" => cfg.max_retries = value.parse().map_err(|_| bad("retries"))?,
                "torn" => {
                    cfg.torn_writes = match value {
                        "1" | "true" => true,
                        "0" | "false" => false,
                        _ => return Err(bad("bool")),
                    }
                }
                "partition" => {
                    let (srv, heal) = match value.split_once(':') {
                        Some((s, h)) => (s, h.parse().map_err(|_| bad("partition"))?),
                        None => (value, 4u32),
                    };
                    cfg.partition = Some(srv.parse().map_err(|_| bad("partition"))?);
                    cfg.partition_heal_after = heal;
                }
                other => return Err(format!("unknown fault key: {other}")),
            }
        }
        Ok(cfg)
    }
}

/// What happens to one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Delivered first try, as in the fault-free simulation.
    Deliver,
    /// Lost `attempts` times; the sender's retry then succeeds.
    Drop {
        /// Number of lost sends before the successful retry.
        attempts: u32,
    },
    /// Delivered, then delivered again (the server deduplicates).
    Duplicate,
    /// Delivered late (annotated; ordering within the synchronous
    /// simulation is unchanged).
    Delay,
}

/// The per-instance fault engine: configuration plus its private RNG.
///
/// Each PFS model instance owns one plane, seeded at construction, so
/// two instances built from the same factory inject the same faults —
/// the determinism the golden-state replay relies on.
#[derive(Debug, Clone)]
pub struct FaultPlane {
    cfg: FaultConfig,
    rng: Rng,
    partition_left: u32,
    injected: u64,
}

impl Default for FaultPlane {
    fn default() -> Self {
        FaultPlane::disabled()
    }
}

impl FaultPlane {
    /// A plane that always returns [`Fate::Deliver`] and consumes no
    /// randomness.
    pub fn disabled() -> FaultPlane {
        FaultPlane::new(FaultConfig::disabled())
    }

    /// A plane driven by `cfg` (its own RNG, seeded by `cfg.seed`).
    pub fn new(cfg: FaultConfig) -> FaultPlane {
        let rng = Rng::new(cfg.seed);
        let partition_left = if cfg.partition.is_some() {
            cfg.partition_heal_after
        } else {
            0
        };
        FaultPlane {
            cfg,
            rng,
            partition_left,
            injected: 0,
        }
    }

    /// The configuration this plane runs.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// `true` if any RPC fault can fire.
    pub fn active(&self) -> bool {
        self.cfg.drop_rate > 0.0
            || self.cfg.dup_rate > 0.0
            || self.cfg.delay_rate > 0.0
            || self.partition_left > 0
    }

    /// Faults injected so far by this plane.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Decide the fate of one message between `from` and `to` (server
    /// ids when the endpoint is a server, `None` for clients).
    ///
    /// The inactive plane returns [`Fate::Deliver`] without touching
    /// the RNG, which is what makes a zero-fault run bit-identical to
    /// the pre-fault-plane code.
    pub fn fate(&mut self, from: Option<u32>, to: Option<u32>) -> Fate {
        if !self.active() {
            return Fate::Deliver;
        }
        // A live partition swallows traffic deterministically before
        // any random draw, so `partition=S:N` alone is reproducible
        // even with all rates at zero.
        if let Some(p) = self.cfg.partition {
            if self.partition_left > 0 && (from == Some(p) || to == Some(p)) {
                let attempts = self.partition_left.min(self.cfg.max_retries.max(1));
                self.partition_left -= attempts.min(self.partition_left);
                self.injected += 1;
                pc_rt::obs::count("faults.injected", 1);
                return Fate::Drop { attempts };
            }
        }
        if self.cfg.drop_rate > 0.0 && self.rng.gen_bool(self.cfg.drop_rate) {
            let mut attempts = 1;
            while attempts < self.cfg.max_retries.max(1) && self.rng.gen_bool(self.cfg.drop_rate) {
                attempts += 1;
            }
            self.injected += 1;
            pc_rt::obs::count("faults.injected", 1);
            return Fate::Drop { attempts };
        }
        if self.cfg.dup_rate > 0.0 && self.rng.gen_bool(self.cfg.dup_rate) {
            self.injected += 1;
            pc_rt::obs::count("faults.injected", 1);
            return Fate::Duplicate;
        }
        if self.cfg.delay_rate > 0.0 && self.rng.gen_bool(self.cfg.delay_rate) {
            self.injected += 1;
            pc_rt::obs::count("faults.injected", 1);
            return Fate::Delay;
        }
        Fate::Deliver
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plane_always_delivers_and_consumes_no_rng() {
        let mut plane = FaultPlane::disabled();
        for _ in 0..100 {
            assert_eq!(plane.fate(None, Some(0)), Fate::Deliver);
        }
        assert_eq!(plane.injected(), 0);
        assert!(!plane.active());
    }

    #[test]
    fn same_seed_same_fates() {
        let cfg = FaultConfig::chaos(42);
        let mut a = FaultPlane::new(cfg.clone());
        let mut b = FaultPlane::new(cfg);
        let fa: Vec<Fate> = (0..200).map(|i| a.fate(None, Some(i % 4))).collect();
        let fb: Vec<Fate> = (0..200).map(|i| b.fate(None, Some(i % 4))).collect();
        assert_eq!(fa, fb);
        assert!(a.injected() > 0, "chaos profile must inject something");
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = FaultPlane::new(FaultConfig::chaos(1));
        let mut b = FaultPlane::new(FaultConfig::chaos(2));
        let fa: Vec<Fate> = (0..200).map(|_| a.fate(None, Some(0))).collect();
        let fb: Vec<Fate> = (0..200).map(|_| b.fate(None, Some(0))).collect();
        assert_ne!(fa, fb);
    }

    #[test]
    fn drop_attempts_capped_by_max_retries() {
        let cfg = FaultConfig {
            drop_rate: 1.0,
            max_retries: 2,
            ..FaultConfig::disabled()
        };
        let mut plane = FaultPlane::new(cfg);
        for _ in 0..50 {
            match plane.fate(None, Some(0)) {
                Fate::Drop { attempts } => assert!(attempts >= 1 && attempts <= 2),
                other => panic!("drop_rate=1.0 must drop, got {other:?}"),
            }
        }
    }

    #[test]
    fn partition_swallows_then_heals() {
        let cfg = FaultConfig {
            partition: Some(1),
            partition_heal_after: 3,
            max_retries: 8,
            ..FaultConfig::disabled()
        };
        let mut plane = FaultPlane::new(cfg);
        // Traffic not touching server 1 is unaffected.
        assert_eq!(plane.fate(None, Some(0)), Fate::Deliver);
        // The partition swallows its budget…
        assert_eq!(plane.fate(None, Some(1)), Fate::Drop { attempts: 3 });
        // …then heals: later traffic to server 1 flows.
        assert_eq!(plane.fate(Some(1), None), Fate::Deliver);
        assert!(!plane.active());
    }

    #[test]
    fn spec_parses_every_key() {
        let cfg = FaultConfig::parse_spec(
            "seed=7,drop=0.25,dup=0.1,delay=0.05,retries=4,torn=true,partition=2:5",
        );
        let expected = FaultConfig {
            seed: 7,
            drop_rate: 0.25,
            dup_rate: 0.1,
            delay_rate: 0.05,
            max_retries: 4,
            torn_writes: true,
            partition: Some(2),
            partition_heal_after: 5,
        };
        assert_eq!(cfg, Ok(expected));
        assert!(FaultConfig::parse_spec("chaos").unwrap().enabled());
        assert!(FaultConfig::parse_spec("drop=2.0").is_err());
        assert!(FaultConfig::parse_spec("wat=1").is_err());
        assert!(FaultConfig::parse_spec("drop").is_err());
    }

    #[test]
    fn zero_rate_config_is_disabled() {
        let cfg = FaultConfig::parse_spec("seed=9").unwrap();
        assert!(!cfg.enabled());
        assert!(!FaultPlane::new(cfg).active());
    }
}
