//! Censor configuration: every behavioral knob of a censor device, declared
//! once. [`GfwConfig`] is the only place a censor setting lives; a
//! [`CensorProfile`] is a name, one `GfwConfig` and its per-device
//! heterogeneity amplitudes, and every run goes through
//! [`CensorProfile::compile`]. The builtin censors, the profile text
//! format and the §8 hardening regimes all set these fields directly.

use crate::dpi::RuleSet;
use crate::profile::CensorProfile;
use intang_netsim::Duration;
use intang_packet::frag::OverlapPolicy;
use intang_tcpstack::reasm::SegmentOverlapPolicy;
use std::sync::{Arc, OnceLock};

/// Which generation of the GFW model a device implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GfwGeneration {
    /// The pre-2017 model of Khattak et al. ("Prior Assumptions 1–3"):
    /// TCB on SYN only, first-SYN sequence wins, teardown on RST/RST-ACK/FIN.
    Old,
    /// The paper's evolved model ("Hypothesized New Behaviors 1–3"):
    /// TCB also on SYN/ACK, resynchronization state, FIN ignored,
    /// probabilistic RST teardown.
    Evolved,
}

/// What a full TCB table evicts to make room (§2.1: tracking every flow is
/// "costly"; how a deployment sheds state decides *which* flows escape
/// tracking under metropolis-scale pressure).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictionPolicy {
    /// Evict the TCB created longest ago (FIFO) — a circular-buffer table.
    Oldest,
    /// Evict the TCB touched longest ago — an LRU cache. Long-lived idle
    /// flows lose tracking first; chatty flows stay observed.
    Lru,
}

/// Which censor profile a [`GfwConfig`] was compiled from, so telemetry
/// exports can tag runs with the censor model that produced them.
/// [`CensorProfile::compile`] tags the three builtin names with their own
/// variant and any other name as `Custom`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileTag {
    /// The pre-2017 Khattak et al. model (`gfw_prior`).
    Prior,
    /// The paper's evolved model (`gfw_evolved`).
    Evolved,
    /// The Turkmenistan censor of Nourin et al. (`turkmenistan`).
    Turkmenistan,
    /// Any other profile (user-authored or perturbed).
    Custom,
}

impl ProfileTag {
    /// The telemetry counter that tags *logical* censor devices compiled
    /// from this profile. Deliberately not exported by the element itself:
    /// the parallel metropolis splits one logical device into one element
    /// per event domain, so a per-element bump would break serial/parallel
    /// byte-identity. The trial and metropolis layers, which know what a
    /// logical device is, bump it instead.
    pub fn device_counter(self) -> intang_telemetry::Counter {
        use intang_telemetry::Counter;
        match self {
            ProfileTag::Prior => Counter::GfwProfilePriorDevices,
            ProfileTag::Evolved => Counter::GfwProfileEvolvedDevices,
            ProfileTag::Turkmenistan => Counter::GfwProfileTurkmenistanDevices,
            ProfileTag::Custom => Counter::GfwProfileCustomDevices,
        }
    }
}

/// The longest any censor duration may be: one simulated day. The censor
/// arms its timers as `now + duration` on a 64-bit microsecond clock, so an
/// unbounded value overflows the first time it fires.
pub const MAX_DURATION: Duration = Duration::from_secs(86_400);

/// Full device/DPI configuration for a censor tap on one path.
#[derive(Debug, Clone, PartialEq)]
pub struct GfwConfig {
    pub generation: GfwGeneration,
    /// Type-1 instance present (single RST, per-packet scan).
    pub type1: bool,
    /// Type-2 instance present (3×RST/ACK, reassembly, blacklist).
    pub type2: bool,

    // ---- validation the GFW does NOT do (Table 3, right column) --------
    /// Validate TCP checksums before processing (real GFW: no, §3.4).
    pub validate_checksum: bool,
    /// Reject segments with unsolicited MD5 options (real GFW: no).
    pub check_md5: bool,
    /// Validate ACK numbers (real GFW: no).
    pub check_ack: bool,
    /// Enforce PAWS-style timestamp freshness (real GFW: no).
    pub check_timestamp: bool,
    /// Reject datagrams whose IP total length exceeds the buffer (no).
    pub validate_ip_total_len: bool,

    // ---- stream semantics ----------------------------------------------
    /// Overlap preference of the type-2 stream assembler. Khattak et al.
    /// observed last-wins for TCP segments; parts of the evolved deployment
    /// appear robust (first-wins), which the Table 1 failure rates of the
    /// out-of-order TCP-segment strategy reflect.
    pub segment_overlap: SegmentOverlapPolicy,
    /// IP fragment overlap preference (first-wins per Khattak et al.).
    pub ip_frag_overlap: OverlapPolicy,

    // ---- evolved-model dynamics ------------------------------------------
    /// Probability that an RST/RST-ACK seen *after* the handshake sends the
    /// TCB to the resynchronization state instead of tearing it down
    /// (Hypothesized New Behavior 3; path-sticky, ≈20 % in §3.4).
    pub rst_resync_prob: f64,
    /// Same, for RSTs seen between the SYN/ACK and the handshake ACK —
    /// "way more frequent" per §4.
    pub rst_resync_prob_handshake: f64,

    // ---- censoring actions -------------------------------------------------
    /// Per-connection probability that an overloaded censor misses the
    /// stream entirely (the persistent ≈2.8 % no-strategy success, §3.4).
    pub overload_miss_prob: f64,
    /// Pair blacklist duration after a detection (90 s, §2.1).
    pub blacklist_duration: Duration,
    /// Injection reaction delay.
    pub reaction_delay: Duration,
    /// TCB table capacity. Tracking every flow is "costly" (§2.1); a full
    /// table evicts the oldest TCB. Real deployments are huge, so the
    /// default is effectively unbounded for trial-sized runs.
    pub max_tcbs: usize,
    /// Which TCB the device sheds when `max_tcbs` is reached.
    pub eviction: EvictionPolicy,
    /// Resync-storm detector: a storm is counted every time
    /// `resync_storm_threshold` resynchronizations land within one sliding
    /// `resync_storm_window` (the window clears after each counted storm,
    /// so a sustained burst counts once per threshold-batch).
    pub resync_storm_window: Duration,
    pub resync_storm_threshold: usize,
    /// Also censor server→client HTTP responses (rare paths, §3.3).
    pub censor_responses: bool,
    /// Inject a spoofed HTTP blockpage (served "from" the real server)
    /// alongside the reset volley on detection — the Turkmenistan behavior
    /// documented by Nourin et al. The GFW never does this (false for both
    /// generations).
    pub inject_blockpage: bool,

    // ---- protocol-specific censorship -----------------------------------
    /// Poison UDP DNS queries for blacklisted domains.
    pub dns_poison: bool,
    /// Tor-filtering devices present on this path (§7.3: absent on paths
    /// from Northern China).
    pub tor_filter: bool,
    /// Active probing of suspected Tor bridges (then IP-level block).
    pub active_probing: bool,
    /// DPI-reset OpenVPN-over-TCP handshakes (observed Nov 2016, later
    /// discontinued, §7.3).
    pub vpn_dpi: bool,

    // ---- fault-injection chaos (Ensafi et al.: GFW behavior is ---------
    // ---- probabilistic and spatially non-uniform) ----------------------
    /// Probability that an injection volley (detection resets, blacklist
    /// resets) actually goes out. 1.0 = always inject (no chaos; draws no
    /// randomness). Lower values model vantage points where the censor's
    /// resets only sometimes arrive.
    pub chaos_rst_inject_prob: f64,
    /// Fractional jitter on `blacklist_duration`: each insertion draws a
    /// duration in `[1-j, 1+j] × blacklist_duration`. 0.0 = no jitter.
    pub chaos_blacklist_jitter: f64,
    /// Probability that a type-1/type-2 instance is "down" for one
    /// detection (device flapping). 0.0 = devices never flap.
    pub chaos_device_flap_prob: f64,

    // ---- state sharding (parallel metropolis) ---------------------------
    /// Number of independent censor-state lanes. 1 (the default) is the
    /// exact legacy device: one global TCB order, one injector, one sticky
    /// draw, all randomness from the simulation RNG. Values > 1 partition
    /// every piece of cross-flow state — eviction order and capacity
    /// quota, resync-storm window, sticky RST draws, injector counters and
    /// a dedicated RNG stream — by [`intang_packet::pair_shard`] of the
    /// packet's address pair, so lanes never observe each other and a
    /// sharded world can be split into parallel event domains without
    /// changing a single emitted byte.
    pub state_shards: u32,
    /// Base seed for the per-lane RNG streams (only used when
    /// `state_shards > 1`; lane `i` draws from
    /// `intang_netsim::rng::lane_seed(shard_seed, i)`).
    pub shard_seed: u64,

    /// Shared reference to the rule database. `GfwConfig::evolved` hands out
    /// the process-wide [`crate::dpi::shared_paper_rules`] `Arc`, so cloning
    /// configs (one per sweep cell × element) never copies the rules.
    pub rules: Arc<RuleSet>,

    /// Which censor profile this config was compiled from (telemetry tag
    /// only; never consulted on the hot path).
    pub profile_tag: ProfileTag,
}

impl GfwConfig {
    /// The evolved model with the paper's default dynamics: the compiled
    /// [`CensorProfile::gfw_evolved`], built once per process.
    pub fn evolved() -> GfwConfig {
        static EVOLVED: OnceLock<GfwConfig> = OnceLock::new();
        EVOLVED
            .get_or_init(|| CensorProfile::gfw_evolved().compile().expect("builtin profile compiles"))
            .clone()
    }

    /// The prior (Khattak et al.) model, deterministic teardown semantics:
    /// the compiled [`CensorProfile::gfw_prior`], built once per process.
    pub fn old() -> GfwConfig {
        static OLD: OnceLock<GfwConfig> = OnceLock::new();
        OLD.get_or_init(|| CensorProfile::gfw_prior().compile().expect("builtin profile compiles"))
            .clone()
    }

    /// Deterministic variant for unit tests: no overload misses, no
    /// injection delay jitter.
    pub fn deterministic(mut self) -> GfwConfig {
        self.overload_miss_prob = 0.0;
        self
    }

    /// Check every probability knob and duration for sanity. The sampling
    /// paths compare probabilities against uniform draws, so a NaN, a
    /// negative value, or a value above 1.0 silently skews every draw
    /// downstream; a duration past [`MAX_DURATION`] overflows the clock.
    /// Rejecting them up front lets CLI paths exit gracefully instead.
    /// Durations are named by their profile keys.
    pub fn validate(&self) -> Result<(), String> {
        fn prob(name: &str, v: f64) -> Result<(), String> {
            if !v.is_finite() || !(0.0..=1.0).contains(&v) {
                return Err(format!("{name} must be a probability in [0.0, 1.0], got {v}"));
            }
            Ok(())
        }
        prob("rst_resync_prob", self.rst_resync_prob)?;
        prob("rst_resync_prob_handshake", self.rst_resync_prob_handshake)?;
        prob("overload_miss_prob", self.overload_miss_prob)?;
        prob("chaos_rst_inject_prob", self.chaos_rst_inject_prob)?;
        prob("chaos_device_flap_prob", self.chaos_device_flap_prob)?;
        if !self.chaos_blacklist_jitter.is_finite() || self.chaos_blacklist_jitter < 0.0 {
            return Err(format!(
                "chaos_blacklist_jitter must be a finite non-negative fraction, got {}",
                self.chaos_blacklist_jitter
            ));
        }
        for (key, d, micros_per_unit) in [
            ("blacklist_duration_ms", self.blacklist_duration, 1_000),
            ("reaction_delay_us", self.reaction_delay, 1),
            ("resync_storm_window_ms", self.resync_storm_window, 1_000),
        ] {
            if d > MAX_DURATION {
                return Err(format!(
                    "{key} must be at most {} (one simulated day)",
                    MAX_DURATION.micros() / micros_per_unit
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generations_differ_where_the_paper_says() {
        let old = GfwConfig::old();
        let new = GfwConfig::evolved();
        assert_eq!(old.generation, GfwGeneration::Old);
        assert_eq!(new.generation, GfwGeneration::Evolved);
        assert_eq!(old.rst_resync_prob, 0.0, "prior model always tears down on RST");
        assert!(new.rst_resync_prob > 0.0);
        assert!(
            new.rst_resync_prob_handshake > new.rst_resync_prob,
            "§4: resync more frequent mid-handshake"
        );
    }

    #[test]
    fn neither_generation_validates_insertion_discrepancies() {
        for cfg in [GfwConfig::old(), GfwConfig::evolved()] {
            assert!(!cfg.validate_checksum);
            assert!(!cfg.check_md5);
            assert!(!cfg.check_ack);
            assert!(!cfg.check_timestamp);
            assert!(!cfg.validate_ip_total_len);
        }
    }

    #[test]
    fn blacklist_is_ninety_seconds() {
        assert_eq!(GfwConfig::evolved().blacklist_duration, Duration::from_secs(90));
    }

    #[test]
    fn builtin_configs_validate() {
        GfwConfig::old().validate().unwrap();
        GfwConfig::evolved().validate().unwrap();
    }

    #[test]
    fn rejects_out_of_range_rst_resync_prob() {
        for bad in [f64::NAN, 3.7, -1.0, f64::INFINITY] {
            let mut cfg = GfwConfig::evolved();
            cfg.rst_resync_prob = bad;
            let err = cfg.validate().unwrap_err();
            assert!(err.contains("rst_resync_prob"), "error names the knob: {err}");
        }
    }

    #[test]
    fn rejects_out_of_range_rst_resync_prob_handshake() {
        for bad in [f64::NAN, 3.7, -1.0] {
            let mut cfg = GfwConfig::evolved();
            cfg.rst_resync_prob_handshake = bad;
            let err = cfg.validate().unwrap_err();
            assert!(err.contains("rst_resync_prob_handshake"), "error names the knob: {err}");
        }
    }

    #[test]
    fn rejects_out_of_range_overload_miss_prob() {
        for bad in [f64::NAN, 3.7, -1.0] {
            let mut cfg = GfwConfig::evolved();
            cfg.overload_miss_prob = bad;
            let err = cfg.validate().unwrap_err();
            assert!(err.contains("overload_miss_prob"), "error names the knob: {err}");
        }
    }

    #[test]
    fn rejects_out_of_range_chaos_knobs() {
        let mut cfg = GfwConfig::evolved();
        cfg.chaos_rst_inject_prob = -0.5;
        assert!(cfg.validate().unwrap_err().contains("chaos_rst_inject_prob"));
        let mut cfg = GfwConfig::evolved();
        cfg.chaos_device_flap_prob = 1.5;
        assert!(cfg.validate().unwrap_err().contains("chaos_device_flap_prob"));
        let mut cfg = GfwConfig::evolved();
        cfg.chaos_blacklist_jitter = -0.1;
        assert!(cfg.validate().unwrap_err().contains("chaos_blacklist_jitter"));
    }
}
