//! Scriptable censor profiles: a censor is *data* — a name, one
//! [`GfwConfig`] and three per-device heterogeneity amplitudes.
//!
//! [`GfwConfig`] is the only place a censor setting is declared. User-written
//! censors are parsed from a std-only TOML-like text format (`[section]`
//! headers, `key = value` lines, `#` comments — no registry dependencies),
//! and [`CensorProfile::parse`] writes each key straight into its config
//! field: the `_ms`/`_us` keys become a [`Duration`], and the `[rules]`
//! lists become the [`RuleSet`](crate::dpi::RuleSet), interned against [`shared_paper_rules`] so
//! a profile with the paper's rules is served from the shared automaton.
//!
//! The three builtin censors are the Rust values below, and nowhere else:
//!
//! * `gfw_prior` — the Khattak et al. model ([`GfwConfig::old`] is its
//!   compiled form);
//! * `gfw_evolved` — the paper's evolved model ([`GfwConfig::evolved`]);
//! * `turkmenistan` — the structurally different censor documented by
//!   Nourin et al.: bidirectional RST on detection plus a spoofed HTTP
//!   blockpage served "from" the real server.
//!
//! Every run goes through [`CensorProfile::compile`]: it validates the
//! config (probabilities, and durations up to [`MAX_DURATION`]) and tags
//! it with the profile's name.
//!
//! The `[heterogeneity]` section provides per-device perturbation hooks
//! (Ensafi et al.: censor behavior varies across devices): a seeded
//! [`CensorProfile::compile_for_device`] jitters blacklist duration and
//! the probabilistic knobs per device, deterministically in the device
//! seed, and is a guaranteed no-op (no RNG even constructed) when every
//! jitter is zero.

use crate::config::{EvictionPolicy, GfwConfig, GfwGeneration, ProfileTag, MAX_DURATION};
use crate::dpi::{domain_patterns, shared_paper_rules, DetectionKind, TOR_FINGERPRINT, VPN_FINGERPRINT};
use intang_netsim::{Duration, SimRng};
use intang_packet::frag::OverlapPolicy;
use intang_tcpstack::reasm::SegmentOverlapPolicy;
use std::path::Path;
use std::sync::Arc;

/// Seed salt for the per-device heterogeneity RNG stream, so device
/// perturbation draws can never collide with any simulation RNG stream
/// derived from the same base seed.
const HET_DEVICE_SEED: u64 = 0x4845_545f_4445_5649; // "HET_DEVI"

/// A censor model as data. Every key in the text format is optional except
/// `[censor] name`; an absent key keeps its [`CensorProfile::gfw_evolved`]
/// value.
#[derive(Debug, Clone, PartialEq)]
pub struct CensorProfile {
    /// Profile name (`[censor] name`). The three builtin names compile to
    /// their canonical [`ProfileTag`]; anything else tags as `Custom`.
    pub name: String,
    /// Every censor setting; the keys of `[censor]` through `[rules]` each
    /// land in one field. [`CensorProfile::compile`] sets `profile_tag`
    /// from `name`.
    pub config: GfwConfig,

    // [heterogeneity] — per-device perturbation amplitudes (Ensafi et al.).
    /// Fractional jitter on the blacklist duration: each device draws a
    /// duration in `[1-j, 1+j] × blacklist_duration`.
    pub het_blacklist_jitter: f64,
    /// Additive jitter on both resync probabilities, clamped to [0, 1].
    pub het_resync_jitter: f64,
    /// Additive jitter on the overload miss probability, clamped to [0, 1].
    pub het_overload_jitter: f64,
}

impl CensorProfile {
    /// A profile whose devices all run `config` unperturbed.
    fn homogeneous(name: &str, config: GfwConfig) -> CensorProfile {
        CensorProfile {
            name: name.to_owned(),
            config,
            het_blacklist_jitter: 0.0,
            het_resync_jitter: 0.0,
            het_overload_jitter: 0.0,
        }
    }

    /// The paper's evolved GFW model; [`GfwConfig::evolved`] is its compiled
    /// form.
    pub fn gfw_evolved() -> CensorProfile {
        CensorProfile::homogeneous(
            "gfw_evolved",
            GfwConfig {
                generation: GfwGeneration::Evolved,
                type1: true,
                type2: true,
                validate_checksum: false,
                check_md5: false,
                check_ack: false,
                check_timestamp: false,
                validate_ip_total_len: false,
                segment_overlap: SegmentOverlapPolicy::FirstWins,
                ip_frag_overlap: OverlapPolicy::FirstWins,
                rst_resync_prob: 0.2,
                rst_resync_prob_handshake: 0.8,
                overload_miss_prob: 0.028,
                blacklist_duration: Duration::from_secs(90),
                reaction_delay: Duration::from_millis(2),
                max_tcbs: 1_000_000,
                eviction: EvictionPolicy::Oldest,
                resync_storm_window: Duration::from_millis(100),
                resync_storm_threshold: 8,
                censor_responses: false,
                inject_blockpage: false,
                dns_poison: true,
                tor_filter: true,
                active_probing: true,
                vpn_dpi: false,
                chaos_rst_inject_prob: 1.0,
                chaos_blacklist_jitter: 0.0,
                chaos_device_flap_prob: 0.0,
                state_shards: 1,
                shard_seed: 0,
                rules: shared_paper_rules(),
                profile_tag: ProfileTag::Evolved,
            },
        )
    }

    /// The prior (Khattak et al.) model; [`GfwConfig::old`] is its compiled
    /// form.
    pub fn gfw_prior() -> CensorProfile {
        CensorProfile::homogeneous(
            "gfw_prior",
            GfwConfig {
                generation: GfwGeneration::Old,
                segment_overlap: SegmentOverlapPolicy::LastWins,
                rst_resync_prob: 0.0,
                rst_resync_prob_handshake: 0.0,
                ..CensorProfile::gfw_evolved().config
            },
        )
    }

    /// The Turkmenistan censor per Nourin et al.: an old-generation state
    /// machine, type-1 resets in *both* directions (`censor_responses`)
    /// plus a spoofed HTTP 403 blockpage, no type-2 reassembly devices, no
    /// Tor filtering or active probing, and no Tor or VPN fingerprints.
    pub fn turkmenistan() -> CensorProfile {
        let evolved = CensorProfile::gfw_evolved().config;
        let keywords_and_domains = evolved
            .rules
            .replacing(DetectionKind::TorHandshake, [])
            .replacing(DetectionKind::VpnHandshake, []);
        CensorProfile::homogeneous(
            "turkmenistan",
            GfwConfig {
                generation: GfwGeneration::Old,
                type2: false,
                segment_overlap: SegmentOverlapPolicy::LastWins,
                rst_resync_prob: 0.0,
                rst_resync_prob_handshake: 0.0,
                overload_miss_prob: 0.0,
                censor_responses: true,
                inject_blockpage: true,
                tor_filter: false,
                active_probing: false,
                rules: Arc::new(keywords_and_domains),
                ..evolved
            },
        )
    }

    /// Names of the builtin profiles, in documentation order.
    pub const BUILTIN_NAMES: [&'static str; 3] = ["gfw_prior", "gfw_evolved", "turkmenistan"];

    /// Look up a builtin profile by name.
    pub fn builtin(name: &str) -> Option<CensorProfile> {
        match name {
            "gfw_prior" => Some(CensorProfile::gfw_prior()),
            "gfw_evolved" => Some(CensorProfile::gfw_evolved()),
            "turkmenistan" => Some(CensorProfile::turkmenistan()),
            _ => None,
        }
    }

    /// Resolve a CLI profile spec: a builtin name or a path to a profile
    /// file.
    pub fn resolve(spec: &str) -> Result<CensorProfile, String> {
        if let Some(p) = CensorProfile::builtin(spec) {
            return Ok(p);
        }
        if Path::new(spec).is_file() {
            return CensorProfile::load(Path::new(spec));
        }
        Err(format!(
            "unknown censor profile `{spec}`: not a builtin ({}) and not a file",
            CensorProfile::BUILTIN_NAMES.join(", ")
        ))
    }

    /// Load and parse a profile file.
    pub fn load(path: &Path) -> Result<CensorProfile, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read profile {}: {e}", path.display()))?;
        CensorProfile::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Parse the profile text format. Every error carries a line number and
    /// names the offending section/key; truncated files (unterminated
    /// strings, arrays or section headers) are rejected, never panicked on.
    pub fn parse(text: &str) -> Result<CensorProfile, String> {
        let mut p = CensorProfile::gfw_evolved();
        p.name = String::new();
        let mut section: Option<String> = None;
        let mut seen_sections: Vec<String> = Vec::new();
        let mut seen_keys: Vec<(String, String)> = Vec::new();

        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let err = |msg: String| format!("line {lineno}: {msg}");
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix('[') {
                let name = rest
                    .strip_suffix(']')
                    .ok_or_else(|| err(format!("unterminated section header `{line}` (truncated file?)")))?
                    .trim();
                if !SECTIONS.iter().any(|(s, _)| *s == name) {
                    let known: Vec<&str> = SECTIONS.iter().map(|(s, _)| *s).collect();
                    return Err(err(format!("unknown section `[{name}]` (known sections: {})", known.join(", "))));
                }
                if seen_sections.iter().any(|s| s == name) {
                    return Err(err(format!("duplicate section `[{name}]`")));
                }
                seen_sections.push(name.to_owned());
                section = Some(name.to_owned());
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| err(format!("expected `key = value`, got `{line}`")))?;
            let (key, value) = (key.trim(), value.trim());
            let sect = section
                .as_deref()
                .ok_or_else(|| err(format!("key `{key}` appears before any `[section]` header")))?;
            let keys = SECTIONS.iter().find(|(s, _)| *s == sect).map(|(_, k)| *k).unwrap();
            if !keys.contains(&key) {
                return Err(err(format!("unknown key `{key}` in `[{sect}]` (known keys: {})", keys.join(", "))));
            }
            if seen_keys.iter().any(|(s, k)| s == sect && k == key) {
                return Err(err(format!("duplicate key `{key}` in `[{sect}]`")));
            }
            seen_keys.push((sect.to_owned(), key.to_owned()));
            apply_key(&mut p, sect, key, value).map_err(&err)?;
        }

        if p.name.is_empty() {
            return Err("missing required key: `[censor] name`".to_owned());
        }
        if p.name.contains(char::is_whitespace) {
            return Err(format!("profile name `{}` must not contain whitespace", p.name));
        }
        Ok(p)
    }

    /// Validate the profile and hand out its config, tagged with the
    /// profile's name. The config's rules `Arc` passes through untouched,
    /// so the paper rules stay the process-wide [`shared_paper_rules`]
    /// `Arc` and [`crate::device::GfwElement`] serves them from the shared
    /// automaton.
    pub fn compile(&self) -> Result<GfwConfig, String> {
        let fail = |e: String| format!("profile {}: {e}", self.name);
        let mut cfg = self.config.clone();
        cfg.profile_tag = match self.name.as_str() {
            "gfw_prior" => ProfileTag::Prior,
            "gfw_evolved" => ProfileTag::Evolved,
            "turkmenistan" => ProfileTag::Turkmenistan,
            _ => ProfileTag::Custom,
        };
        cfg.validate().map_err(fail)?;
        for (name, v) in [
            ("blacklist_jitter", self.het_blacklist_jitter),
            ("resync_jitter", self.het_resync_jitter),
            ("overload_jitter", self.het_overload_jitter),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(fail(format!(
                    "[heterogeneity] {name} must be a finite non-negative amplitude, got {v}"
                )));
            }
        }
        // The longest blacklist a device can draw must respect the same
        // bound as the configured one.
        if cfg.blacklist_duration.micros() as f64 * (1.0 + self.het_blacklist_jitter) > MAX_DURATION.micros() as f64 {
            return Err(fail(format!(
                "[heterogeneity] blacklist_jitter = {:?} stretches blacklist_duration_ms past {} (one simulated day)",
                self.het_blacklist_jitter,
                MAX_DURATION.micros() / 1_000
            )));
        }
        Ok(cfg)
    }

    /// Compile for one specific device, applying the `[heterogeneity]`
    /// perturbations deterministically in `device_seed`. With every jitter
    /// at zero this is exactly [`CensorProfile::compile`] — no RNG is even
    /// constructed — so homogeneous deployments stay byte-identical to the
    /// builtin models.
    pub fn compile_for_device(&self, device_seed: u64) -> Result<GfwConfig, String> {
        let mut cfg = self.compile()?;
        if self.het_blacklist_jitter == 0.0 && self.het_resync_jitter == 0.0 && self.het_overload_jitter == 0.0 {
            return Ok(cfg);
        }
        // Fixed draw order (blacklist, resync, resync_handshake, overload)
        // keeps a profile's perturbations stable under unrelated edits.
        let mut rng = SimRng::seed_from(device_seed ^ HET_DEVICE_SEED);
        if self.het_blacklist_jitter > 0.0 {
            let factor = 1.0 + unit_draw(&mut rng) * self.het_blacklist_jitter;
            let us = (cfg.blacklist_duration.micros() as f64 * factor.max(0.0)).round() as u64;
            cfg.blacklist_duration = Duration::from_micros(us);
        }
        if self.het_resync_jitter > 0.0 {
            cfg.rst_resync_prob = (cfg.rst_resync_prob + unit_draw(&mut rng) * self.het_resync_jitter).clamp(0.0, 1.0);
            cfg.rst_resync_prob_handshake = (cfg.rst_resync_prob_handshake + unit_draw(&mut rng) * self.het_resync_jitter).clamp(0.0, 1.0);
        }
        if self.het_overload_jitter > 0.0 {
            cfg.overload_miss_prob = (cfg.overload_miss_prob + unit_draw(&mut rng) * self.het_overload_jitter).clamp(0.0, 1.0);
        }
        debug_assert!(cfg.validate().is_ok(), "clamped perturbations stay in range");
        Ok(cfg)
    }
}

/// Uniform draw in [-1, 1] (SimRng has no float method; probabilities in
/// the simulator go through `chance`, which this deliberately bypasses so
/// device perturbation never shares a draw path with trial sampling).
fn unit_draw(rng: &mut SimRng) -> f64 {
    (rng.next_u32() as f64 / u32::MAX as f64) * 2.0 - 1.0
}

/// The schema: every section and the keys it accepts.
const SECTIONS: [(&str, &[&str]); 8] = [
    ("censor", &["name", "generation", "type1", "type2"]),
    ("validation", &["checksum", "md5", "ack", "timestamp", "ip_total_len"]),
    ("stream", &["segment_overlap", "ip_frag_overlap"]),
    (
        "dynamics",
        &[
            "rst_resync_prob",
            "rst_resync_prob_handshake",
            "overload_miss_prob",
            "blacklist_duration_ms",
            "reaction_delay_us",
            "max_tcbs",
            "eviction",
            "resync_storm_window_ms",
            "resync_storm_threshold",
        ],
    ),
    ("actions", &["censor_responses", "inject_blockpage"]),
    ("protocols", &["dns_poison", "tor_filter", "active_probing", "vpn_dpi"]),
    ("rules", &["keywords", "domains", "tor_fingerprint", "vpn_fingerprint"]),
    ("heterogeneity", &["blacklist_jitter", "resync_jitter", "overload_jitter"]),
];

/// Strip a `#` comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_quotes = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_quotes = !in_quotes,
            '#' if !in_quotes => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_bool(v: &str) -> Result<bool, String> {
    match v {
        "true" => Ok(true),
        "false" => Ok(false),
        _ => Err(format!("expected `true` or `false`, got `{v}`")),
    }
}

fn parse_f64(v: &str) -> Result<f64, String> {
    v.parse::<f64>().map_err(|_| format!("expected a number, got `{v}`"))
}

fn parse_u64(v: &str) -> Result<u64, String> {
    let digits: String = v.chars().filter(|&c| c != '_').collect();
    digits
        .parse::<u64>()
        .map_err(|_| format!("expected a non-negative integer, got `{v}`"))
}

fn parse_usize(v: &str) -> Result<usize, String> {
    parse_u64(v).map(|n| n as usize)
}

/// A `_ms` or `_us` value as a [`Duration`]. A value past the microsecond
/// clock saturates, so [`GfwConfig::validate`] rejects it with the rest of
/// the durations above [`MAX_DURATION`].
fn parse_duration(v: &str, micros_per_unit: u64) -> Result<Duration, String> {
    parse_u64(v).map(|n| Duration::from_micros(n.saturating_mul(micros_per_unit)))
}

fn parse_string(v: &str) -> Result<String, String> {
    let inner = v.strip_prefix('"').ok_or_else(|| format!("expected a quoted string, got `{v}`"))?;
    let inner = inner
        .strip_suffix('"')
        .ok_or_else(|| format!("unterminated string `{v}` (truncated file?)"))?;
    if inner.contains('"') {
        return Err(format!("stray quote inside string `{v}` (escapes are not supported)"));
    }
    Ok(inner.to_owned())
}

/// Parse a single-line array of quoted strings: `["a", "b"]`.
fn parse_string_array(v: &str) -> Result<Vec<String>, String> {
    let inner = v
        .strip_prefix('[')
        .ok_or_else(|| format!("expected an array like [\"a\", \"b\"], got `{v}`"))?;
    let inner = inner
        .strip_suffix(']')
        .ok_or_else(|| format!("unterminated array `{v}` (truncated file?)"))?;
    let inner = inner.trim();
    if inner.is_empty() {
        return Ok(Vec::new());
    }
    inner.split(',').map(|item| parse_string(item.trim())).collect()
}

/// Replace `cfg`'s rules of `kind` with `patterns`. A result equal to the
/// paper's rules is the shared `Arc` itself, so the device serves it from
/// the process-wide automaton.
fn set_rules(cfg: &mut GfwConfig, kind: DetectionKind, patterns: impl IntoIterator<Item = Vec<u8>>) {
    let rules = cfg.rules.replacing(kind, patterns);
    let shared = shared_paper_rules();
    cfg.rules = if rules == *shared { shared } else { Arc::new(rules) };
}

fn apply_key(p: &mut CensorProfile, sect: &str, key: &str, value: &str) -> Result<(), String> {
    let bad = |what: &str, v: &str, options: &str| format!("bad {what} `{v}` (expected one of: {options})");
    let c = &mut p.config;
    match (sect, key) {
        ("censor", "name") => p.name = parse_string(value)?,
        ("censor", "generation") => {
            c.generation = match parse_string(value)?.as_str() {
                "old" => GfwGeneration::Old,
                "evolved" => GfwGeneration::Evolved,
                other => return Err(bad("generation", other, "old, evolved")),
            }
        }
        ("censor", "type1") => c.type1 = parse_bool(value)?,
        ("censor", "type2") => c.type2 = parse_bool(value)?,
        ("validation", "checksum") => c.validate_checksum = parse_bool(value)?,
        ("validation", "md5") => c.check_md5 = parse_bool(value)?,
        ("validation", "ack") => c.check_ack = parse_bool(value)?,
        ("validation", "timestamp") => c.check_timestamp = parse_bool(value)?,
        ("validation", "ip_total_len") => c.validate_ip_total_len = parse_bool(value)?,
        ("stream", "segment_overlap") => {
            c.segment_overlap = match parse_string(value)?.as_str() {
                "first_wins" => SegmentOverlapPolicy::FirstWins,
                "last_wins" => SegmentOverlapPolicy::LastWins,
                other => return Err(bad("segment_overlap", other, "first_wins, last_wins")),
            }
        }
        ("stream", "ip_frag_overlap") => {
            c.ip_frag_overlap = match parse_string(value)?.as_str() {
                "first_wins" => OverlapPolicy::FirstWins,
                "last_wins" => OverlapPolicy::LastWins,
                other => return Err(bad("ip_frag_overlap", other, "first_wins, last_wins")),
            }
        }
        ("dynamics", "rst_resync_prob") => c.rst_resync_prob = parse_f64(value)?,
        ("dynamics", "rst_resync_prob_handshake") => c.rst_resync_prob_handshake = parse_f64(value)?,
        ("dynamics", "overload_miss_prob") => c.overload_miss_prob = parse_f64(value)?,
        ("dynamics", "blacklist_duration_ms") => c.blacklist_duration = parse_duration(value, 1_000)?,
        ("dynamics", "reaction_delay_us") => c.reaction_delay = parse_duration(value, 1)?,
        ("dynamics", "max_tcbs") => c.max_tcbs = parse_usize(value)?,
        ("dynamics", "eviction") => {
            c.eviction = match parse_string(value)?.as_str() {
                "oldest" => EvictionPolicy::Oldest,
                "lru" => EvictionPolicy::Lru,
                other => return Err(bad("eviction", other, "oldest, lru")),
            }
        }
        ("dynamics", "resync_storm_window_ms") => c.resync_storm_window = parse_duration(value, 1_000)?,
        ("dynamics", "resync_storm_threshold") => c.resync_storm_threshold = parse_usize(value)?,
        ("actions", "censor_responses") => c.censor_responses = parse_bool(value)?,
        ("actions", "inject_blockpage") => c.inject_blockpage = parse_bool(value)?,
        ("protocols", "dns_poison") => c.dns_poison = parse_bool(value)?,
        ("protocols", "tor_filter") => c.tor_filter = parse_bool(value)?,
        ("protocols", "active_probing") => c.active_probing = parse_bool(value)?,
        ("protocols", "vpn_dpi") => c.vpn_dpi = parse_bool(value)?,
        ("rules", "keywords") => {
            let keywords = parse_string_array(value)?;
            set_rules(c, DetectionKind::HttpKeyword, keywords.into_iter().map(String::into_bytes));
        }
        ("rules", "domains") => {
            let domains = parse_string_array(value)?;
            set_rules(c, DetectionKind::Domain, domains.iter().flat_map(|d| domain_patterns(d)));
        }
        ("rules", "tor_fingerprint") => {
            let on = parse_bool(value)?;
            set_rules(c, DetectionKind::TorHandshake, on.then(|| TOR_FINGERPRINT.to_vec()));
        }
        ("rules", "vpn_fingerprint") => {
            let on = parse_bool(value)?;
            set_rules(c, DetectionKind::VpnHandshake, on.then(|| VPN_FINGERPRINT.to_vec()));
        }
        ("heterogeneity", "blacklist_jitter") => p.het_blacklist_jitter = parse_f64(value)?,
        ("heterogeneity", "resync_jitter") => p.het_resync_jitter = parse_f64(value)?,
        ("heterogeneity", "overload_jitter") => p.het_overload_jitter = parse_f64(value)?,
        _ => unreachable!("key validated against the schema before dispatch"),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dpi::{Rule, RuleSet};

    #[test]
    fn paper_rules_compile_to_the_shared_arc() {
        // Not just content-equal: the literal process-wide Arc, so the
        // device's shared-automaton fast path can't tell profile from
        // builtin even by pointer identity — also when a profile file
        // spells the paper's rules out.
        let spelled = "[censor]\nname = \"x\"\n[rules]\nkeywords = [\"ultrasurf\"]\n\
                       domains = [\"dropbox.com\", \"facebook.com\", \"twitter.com\", \"youtube.com\"]\n\
                       tor_fingerprint = true\nvpn_fingerprint = true\n";
        for p in [
            CensorProfile::gfw_evolved(),
            CensorProfile::gfw_prior(),
            CensorProfile::parse(spelled).unwrap(),
        ] {
            let cfg = p.compile().unwrap();
            assert!(Arc::ptr_eq(&cfg.rules, &shared_paper_rules()));
        }
    }

    #[test]
    fn turkmenistan_is_structurally_different() {
        let cfg = CensorProfile::turkmenistan().compile().unwrap();
        assert_eq!(cfg.generation, GfwGeneration::Old);
        assert!(cfg.type1 && !cfg.type2);
        assert!(cfg.censor_responses, "bidirectional: responses censored too");
        assert!(cfg.inject_blockpage);
        assert!(!cfg.tor_filter && !cfg.active_probing);
        assert_eq!(cfg.profile_tag, ProfileTag::Turkmenistan);
        assert!(!Arc::ptr_eq(&cfg.rules, &shared_paper_rules()), "no Tor/VPN fingerprints");
    }

    #[test]
    fn profile_tags_follow_names() {
        let mut p = CensorProfile::gfw_evolved();
        p.name = "my_custom_censor".to_owned();
        assert_eq!(p.compile().unwrap().profile_tag, ProfileTag::Custom);
    }

    #[test]
    fn rejects_unknown_section_and_key() {
        let err = CensorProfile::parse("[bogus]\nx = 1\n").unwrap_err();
        assert!(err.contains("line 1") && err.contains("unknown section"), "{err}");
        let err = CensorProfile::parse("[censor]\nname = \"x\"\nbogus_key = 1\n").unwrap_err();
        assert!(err.contains("line 3") && err.contains("unknown key `bogus_key`"), "{err}");
    }

    #[test]
    fn rejects_duplicates() {
        let err = CensorProfile::parse("[censor]\nname = \"x\"\n[censor]\n").unwrap_err();
        assert!(err.contains("duplicate section"), "{err}");
        let err = CensorProfile::parse("[censor]\nname = \"x\"\nname = \"y\"\n").unwrap_err();
        assert!(err.contains("duplicate key `name`"), "{err}");
    }

    #[test]
    fn rejects_truncation() {
        let err = CensorProfile::parse("[censor]\nname = \"gfw_ev").unwrap_err();
        assert!(err.contains("unterminated string"), "{err}");
        let err = CensorProfile::parse("[censor]\nname = \"x\"\n[rules]\nkeywords = [\"ultra\"").unwrap_err();
        assert!(err.contains("unterminated array"), "{err}");
        let err = CensorProfile::parse("[censor\n").unwrap_err();
        assert!(err.contains("unterminated section header"), "{err}");
    }

    #[test]
    fn rejects_keys_outside_sections_and_missing_name() {
        let err = CensorProfile::parse("name = \"x\"\n").unwrap_err();
        assert!(err.contains("before any `[section]`"), "{err}");
        let err = CensorProfile::parse("[censor]\ntype1 = true\n").unwrap_err();
        assert!(err.contains("missing required key"), "{err}");
    }

    #[test]
    fn rejects_bad_values_with_actionable_messages() {
        let err = CensorProfile::parse("[censor]\nname = \"x\"\ntype1 = yes\n").unwrap_err();
        assert!(err.contains("expected `true` or `false`"), "{err}");
        let err = CensorProfile::parse("[censor]\nname = \"x\"\ngeneration = \"modern\"\n").unwrap_err();
        assert!(err.contains("old, evolved"), "{err}");
        let err = CensorProfile::parse("[censor]\nname = \"x\"\n[dynamics]\nmax_tcbs = -5\n").unwrap_err();
        assert!(err.contains("non-negative integer"), "{err}");
    }

    #[test]
    fn out_of_range_probabilities_fail_at_compile() {
        for (key, knob) in [
            ("rst_resync_prob", "rst_resync_prob"),
            ("rst_resync_prob_handshake", "rst_resync_prob_handshake"),
            ("overload_miss_prob", "overload_miss_prob"),
        ] {
            let text = format!("[censor]\nname = \"x\"\n[dynamics]\n{key} = 3.7\n");
            let p = CensorProfile::parse(&text).unwrap();
            let err = p.compile().unwrap_err();
            assert!(err.contains(knob), "compile error names the knob: {err}");
        }
        let p = CensorProfile::parse("[censor]\nname = \"x\"\n[heterogeneity]\nresync_jitter = -0.2\n").unwrap();
        assert!(p.compile().unwrap_err().contains("resync_jitter"));
    }

    #[test]
    fn durations_past_one_day_fail_at_compile() {
        // Each of these once compiled, then overflowed `Instant + Duration`
        // the first time the censor armed the timer (a panic in debug
        // builds, a silent wrap in release).
        for (section, line, key) in [
            ("dynamics", "reaction_delay_us = 18446744073709551615", "reaction_delay_us"),
            ("dynamics", "blacklist_duration_ms = 18446744073709551", "blacklist_duration_ms"),
            ("heterogeneity", "blacklist_jitter = 1e300", "blacklist_jitter"),
            ("dynamics", "blacklist_duration_ms = 18446744073709551615", "blacklist_duration_ms"),
            (
                "dynamics",
                "resync_storm_window_ms = 18446744073709551615",
                "resync_storm_window_ms",
            ),
            ("dynamics", "resync_storm_window_ms = 86_400_001", "resync_storm_window_ms"),
        ] {
            let p = CensorProfile::parse(&format!("[censor]\nname = \"x\"\n[{section}]\n{line}\n")).unwrap();
            let err = p.compile().unwrap_err();
            assert!(err.contains(key) && err.contains("one simulated day"), "{line}: {err}");
        }
        // The bound itself is allowed, jitter included.
        let p = CensorProfile::parse(
            "[censor]\nname = \"x\"\n[dynamics]\nblacklist_duration_ms = 43_200_000\nreaction_delay_us = 86_400_000_000\n\
             [heterogeneity]\nblacklist_jitter = 1.0\n",
        )
        .unwrap();
        for seed in 0..8 {
            assert!(p.compile_for_device(seed).unwrap().blacklist_duration <= MAX_DURATION);
        }
    }

    #[test]
    fn every_schema_key_lands_in_its_own_field() {
        // One key per parse, set to a non-default value: the parsed profile
        // must equal the defaults with exactly that field changed.
        fn rules_with(kind: DetectionKind, patterns: &[&[u8]]) -> Arc<RuleSet> {
            Arc::new(shared_paper_rules().replacing(kind, patterns.iter().map(|p| p.to_vec())))
        }
        type Set = fn(&mut CensorProfile);
        let cases: [(&str, &str, &str, Set); 33] = [
            ("censor", "generation", "\"old\"", |p| p.config.generation = GfwGeneration::Old),
            ("censor", "type1", "false", |p| p.config.type1 = false),
            ("censor", "type2", "false", |p| p.config.type2 = false),
            ("validation", "checksum", "true", |p| p.config.validate_checksum = true),
            ("validation", "md5", "true", |p| p.config.check_md5 = true),
            ("validation", "ack", "true", |p| p.config.check_ack = true),
            ("validation", "timestamp", "true", |p| p.config.check_timestamp = true),
            ("validation", "ip_total_len", "true", |p| p.config.validate_ip_total_len = true),
            ("stream", "segment_overlap", "\"last_wins\"", |p| {
                p.config.segment_overlap = SegmentOverlapPolicy::LastWins
            }),
            ("stream", "ip_frag_overlap", "\"last_wins\"", |p| {
                p.config.ip_frag_overlap = OverlapPolicy::LastWins
            }),
            ("dynamics", "rst_resync_prob", "0.31", |p| p.config.rst_resync_prob = 0.31),
            ("dynamics", "rst_resync_prob_handshake", "0.32", |p| {
                p.config.rst_resync_prob_handshake = 0.32
            }),
            ("dynamics", "overload_miss_prob", "0.33", |p| p.config.overload_miss_prob = 0.33),
            ("dynamics", "blacklist_duration_ms", "1_234", |p| {
                p.config.blacklist_duration = Duration::from_millis(1_234)
            }),
            ("dynamics", "reaction_delay_us", "567", |p| {
                p.config.reaction_delay = Duration::from_micros(567)
            }),
            ("dynamics", "max_tcbs", "89", |p| p.config.max_tcbs = 89),
            ("dynamics", "eviction", "\"lru\"", |p| p.config.eviction = EvictionPolicy::Lru),
            ("dynamics", "resync_storm_window_ms", "250", |p| {
                p.config.resync_storm_window = Duration::from_millis(250)
            }),
            ("dynamics", "resync_storm_threshold", "3", |p| p.config.resync_storm_threshold = 3),
            ("actions", "censor_responses", "true", |p| p.config.censor_responses = true),
            ("actions", "inject_blockpage", "true", |p| p.config.inject_blockpage = true),
            ("protocols", "dns_poison", "false", |p| p.config.dns_poison = false),
            ("protocols", "tor_filter", "false", |p| p.config.tor_filter = false),
            ("protocols", "active_probing", "false", |p| p.config.active_probing = false),
            ("protocols", "vpn_dpi", "true", |p| p.config.vpn_dpi = true),
            ("rules", "keywords", "[\"falun\", \"tiananmen\"]", |p| {
                p.config.rules = rules_with(DetectionKind::HttpKeyword, &[b"falun", b"tiananmen"])
            }),
            ("rules", "domains", "[]", |p| {
                p.config.rules = rules_with(DetectionKind::Domain, &[])
            }),
            ("rules", "tor_fingerprint", "false", |p| {
                p.config.rules = rules_with(DetectionKind::TorHandshake, &[])
            }),
            ("rules", "vpn_fingerprint", "false", |p| {
                p.config.rules = rules_with(DetectionKind::VpnHandshake, &[])
            }),
            ("heterogeneity", "blacklist_jitter", "0.1", |p| p.het_blacklist_jitter = 0.1),
            ("heterogeneity", "resync_jitter", "0.2", |p| p.het_resync_jitter = 0.2),
            ("heterogeneity", "overload_jitter", "0.3", |p| p.het_overload_jitter = 0.3),
            // Every parse below also sets `name`; this case pins it alone.
            ("censor", "name", "\"y\"", |p| p.name = "y".to_owned()),
        ];
        for (sect, keys) in SECTIONS {
            for key in keys {
                assert!(cases.iter().any(|c| c.0 == sect && c.1 == *key), "no case for [{sect}] {key}");
            }
        }
        let mut base = CensorProfile::gfw_evolved();
        base.name = "x".to_owned();
        for (sect, key, value, set) in cases {
            let text = match (sect, key) {
                ("censor", "name") => format!("[censor]\nname = {value}\n"),
                ("censor", _) => format!("[censor]\nname = \"x\"\n{key} = {value}\n"),
                _ => format!("[censor]\nname = \"x\"\n[{sect}]\n{key} = {value}\n"),
            };
            let mut want = base.clone();
            set(&mut want);
            assert_ne!(want, base, "[{sect}] {key} = {value} must differ from the default");
            assert_eq!(CensorProfile::parse(&text).unwrap(), want, "[{sect}] {key} = {value}");
        }
    }

    #[test]
    fn rule_lists_keep_their_documented_order() {
        // Keywords, then each domain as dotted text and DNS labels, then
        // the fingerprints — whatever order the keys come in.
        let p = CensorProfile::parse(
            "[censor]\nname = \"x\"\n[rules]\nvpn_fingerprint = false\ndomains = [\"a.cn\"]\nkeywords = [\"k1\", \"k2\"]\n",
        )
        .unwrap();
        let rule = |pattern: &[u8], kind| Rule {
            pattern: pattern.to_vec(),
            kind,
        };
        let want = vec![
            rule(b"k1", DetectionKind::HttpKeyword),
            rule(b"k2", DetectionKind::HttpKeyword),
            rule(b"a.cn", DetectionKind::Domain),
            rule(b"\x01a\x02cn", DetectionKind::Domain),
            rule(TOR_FINGERPRINT, DetectionKind::TorHandshake),
        ];
        assert_eq!(p.config.rules.rules, want);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "# leading comment\n\n[censor]\nname = \"x\" # trailing\n# [not_a_section]\n";
        let p = CensorProfile::parse(text).unwrap();
        assert_eq!(p.name, "x");
    }

    #[test]
    fn zero_jitter_device_compile_is_the_plain_compile() {
        let p = CensorProfile::gfw_evolved();
        for seed in [0u64, 1, 0xdead_beef] {
            assert_eq!(p.compile_for_device(seed).unwrap(), p.compile().unwrap());
        }
    }

    #[test]
    fn heterogeneity_perturbs_deterministically_and_in_range() {
        let mut p = CensorProfile::gfw_evolved();
        p.het_blacklist_jitter = 0.3;
        p.het_resync_jitter = 0.5;
        p.het_overload_jitter = 0.9;
        let base = p.compile().unwrap();
        let a = p.compile_for_device(7).unwrap();
        let b = p.compile_for_device(7).unwrap();
        let c = p.compile_for_device(8).unwrap();
        assert_eq!(a, b, "same device seed, same perturbation");
        assert_ne!(a, c, "different devices differ");
        for cfg in [&a, &c] {
            cfg.validate().unwrap();
            assert_ne!(*cfg, base, "jitter actually moved the knobs");
            let lo = (90_000_000.0 * 0.7) as u64;
            let hi = (90_000_000.0 * 1.3) as u64;
            let us = cfg.blacklist_duration.micros();
            assert!((lo..=hi).contains(&us), "blacklist within ±30%: {us}");
        }
    }
}
