//! Scriptable censor profiles: the censor's state machine, DPI rules,
//! reset policy, blacklist parameters, resync probabilities and probe
//! behavior as *data*, compiled onto the existing dense machinery.
//!
//! A [`CensorProfile`] is compiled to a [`GfwConfig`]: the DPI rules
//! become the dense Aho–Corasick automaton, the dynamics knobs land in the
//! dense TCB transition paths, and the sharded-lane machinery is untouched
//! — so the hot path stays allocation-free. User-written censors are
//! parsed from a std-only TOML-like text format (`[section]` headers,
//! `key = value` lines, `#` comments — no registry dependencies).
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
//! The `[heterogeneity]` section provides per-device perturbation hooks
//! (Ensafi et al.: censor behavior varies across devices): a seeded
//! [`CensorProfile::compile_for_device`] jitters blacklist duration and
//! the probabilistic knobs per device, deterministically in the device
//! seed, and is a guaranteed no-op (no RNG even constructed) when every
//! jitter is zero.

use crate::config::{EvictionPolicy, GfwConfig, GfwGeneration, ProfileTag};
use crate::dpi::{dns_label_encoding, shared_paper_rules, DetectionKind, Rule, RuleSet, TOR_FINGERPRINT, VPN_FINGERPRINT};
use intang_netsim::{Duration, SimRng};
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
    pub generation: GfwGeneration,
    pub type1: bool,
    pub type2: bool,

    // [validation]
    pub validate_checksum: bool,
    pub check_md5: bool,
    pub check_ack: bool,
    pub check_timestamp: bool,
    pub validate_ip_total_len: bool,

    // [stream]
    pub segment_overlap: intang_tcpstack::reasm::SegmentOverlapPolicy,
    pub ip_frag_overlap: intang_packet::frag::OverlapPolicy,

    // [dynamics]
    pub rst_resync_prob: f64,
    pub rst_resync_prob_handshake: f64,
    pub overload_miss_prob: f64,
    pub blacklist_duration_ms: u64,
    pub reaction_delay_us: u64,
    pub max_tcbs: usize,
    pub eviction: EvictionPolicy,
    pub resync_storm_window_ms: u64,
    pub resync_storm_threshold: usize,

    // [actions]
    pub censor_responses: bool,
    pub inject_blockpage: bool,

    // [protocols]
    pub dns_poison: bool,
    pub tor_filter: bool,
    pub active_probing: bool,
    pub vpn_dpi: bool,

    // [rules] — compiled in this order: keywords, then per-domain dotted
    // text + DNS label encoding, then the Tor and VPN fingerprints.
    pub keywords: Vec<String>,
    pub domains: Vec<String>,
    pub tor_fingerprint: bool,
    pub vpn_fingerprint: bool,

    // [heterogeneity] — per-device perturbation amplitudes (Ensafi et al.).
    /// Fractional jitter on the blacklist duration: each device draws a
    /// duration in `[1-j, 1+j] × blacklist_duration_ms`.
    pub het_blacklist_jitter: f64,
    /// Additive jitter on both resync probabilities, clamped to [0, 1].
    pub het_resync_jitter: f64,
    /// Additive jitter on the overload miss probability, clamped to [0, 1].
    pub het_overload_jitter: f64,
}

impl CensorProfile {
    /// The paper's evolved GFW model; [`GfwConfig::evolved`] is its compiled
    /// form.
    pub fn gfw_evolved() -> CensorProfile {
        CensorProfile {
            name: "gfw_evolved".to_owned(),
            generation: GfwGeneration::Evolved,
            type1: true,
            type2: true,
            validate_checksum: false,
            check_md5: false,
            check_ack: false,
            check_timestamp: false,
            validate_ip_total_len: false,
            segment_overlap: intang_tcpstack::reasm::SegmentOverlapPolicy::FirstWins,
            ip_frag_overlap: intang_packet::frag::OverlapPolicy::FirstWins,
            rst_resync_prob: 0.2,
            rst_resync_prob_handshake: 0.8,
            overload_miss_prob: 0.028,
            blacklist_duration_ms: 90_000,
            reaction_delay_us: 2_000,
            max_tcbs: 1_000_000,
            eviction: EvictionPolicy::Oldest,
            resync_storm_window_ms: 100,
            resync_storm_threshold: 8,
            censor_responses: false,
            inject_blockpage: false,
            dns_poison: true,
            tor_filter: true,
            active_probing: true,
            vpn_dpi: false,
            keywords: vec!["ultrasurf".to_owned()],
            domains: vec![
                "dropbox.com".to_owned(),
                "facebook.com".to_owned(),
                "twitter.com".to_owned(),
                "youtube.com".to_owned(),
            ],
            tor_fingerprint: true,
            vpn_fingerprint: true,
            het_blacklist_jitter: 0.0,
            het_resync_jitter: 0.0,
            het_overload_jitter: 0.0,
        }
    }

    /// The prior (Khattak et al.) model; [`GfwConfig::old`] is its compiled
    /// form.
    pub fn gfw_prior() -> CensorProfile {
        CensorProfile {
            name: "gfw_prior".to_owned(),
            generation: GfwGeneration::Old,
            segment_overlap: intang_tcpstack::reasm::SegmentOverlapPolicy::LastWins,
            rst_resync_prob: 0.0,
            rst_resync_prob_handshake: 0.0,
            ..CensorProfile::gfw_evolved()
        }
    }

    /// The Turkmenistan censor per Nourin et al.: an old-generation state
    /// machine, type-1 resets in *both* directions (`censor_responses`)
    /// plus a spoofed HTTP 403 blockpage, no type-2 reassembly devices, no
    /// Tor filtering or active probing.
    pub fn turkmenistan() -> CensorProfile {
        CensorProfile {
            name: "turkmenistan".to_owned(),
            generation: GfwGeneration::Old,
            type2: false,
            segment_overlap: intang_tcpstack::reasm::SegmentOverlapPolicy::LastWins,
            rst_resync_prob: 0.0,
            rst_resync_prob_handshake: 0.0,
            overload_miss_prob: 0.0,
            censor_responses: true,
            inject_blockpage: true,
            tor_filter: false,
            active_probing: false,
            tor_fingerprint: false,
            vpn_fingerprint: false,
            ..CensorProfile::gfw_evolved()
        }
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

    /// The DPI rules the `[rules]` lists describe: keywords, then each
    /// domain as dotted text and as DNS label encoding, then the Tor and
    /// VPN fingerprints. [`shared_paper_rules`] is this set for
    /// [`CensorProfile::gfw_evolved`].
    pub(crate) fn rule_set(&self) -> RuleSet {
        let mut rules = RuleSet::empty();
        for kw in &self.keywords {
            rules.rules.push(Rule {
                pattern: kw.as_bytes().to_vec(),
                kind: DetectionKind::HttpKeyword,
            });
        }
        for d in &self.domains {
            // Two patterns per domain: the dotted text form (HTTP Host
            // headers, plain-text protocols) and the DNS wire encoding with
            // length-prefixed labels (catches queries inside UDP/TCP DNS
            // messages). Registrable part only, so `www.dropbox.com` also
            // matches.
            rules.rules.push(Rule {
                pattern: d.as_bytes().to_vec(),
                kind: DetectionKind::Domain,
            });
            rules.rules.push(Rule {
                pattern: dns_label_encoding(d),
                kind: DetectionKind::Domain,
            });
        }
        if self.tor_fingerprint {
            rules.rules.push(Rule {
                pattern: TOR_FINGERPRINT.to_vec(),
                kind: DetectionKind::TorHandshake,
            });
        }
        if self.vpn_fingerprint {
            rules.rules.push(Rule {
                pattern: VPN_FINGERPRINT.to_vec(),
                kind: DetectionKind::VpnHandshake,
            });
        }
        rules
    }

    /// Compile onto the dense machinery: build the [`RuleSet`], fill a
    /// [`GfwConfig`], and validate every probability knob and duration.
    /// When the rules equal the paper set the process-wide
    /// [`shared_paper_rules`] `Arc` itself is handed out, so
    /// [`crate::device::GfwElement`] serves them from the shared automaton.
    pub fn compile(&self) -> Result<GfwConfig, String> {
        for (name, v) in [
            ("blacklist_jitter", self.het_blacklist_jitter),
            ("resync_jitter", self.het_resync_jitter),
            ("overload_jitter", self.het_overload_jitter),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(format!(
                    "profile {}: [heterogeneity] {name} must be a finite non-negative amplitude, got {v}",
                    self.name
                ));
            }
        }
        let millis = |key: &str, ms: u64| {
            ms.checked_mul(1_000)
                .map(Duration::from_micros)
                .ok_or_else(|| format!("profile {}: [dynamics] {key} = {ms} overflows the microsecond clock", self.name))
        };
        let rules = self.rule_set();
        let shared = shared_paper_rules();
        let cfg = GfwConfig {
            generation: self.generation,
            type1: self.type1,
            type2: self.type2,
            validate_checksum: self.validate_checksum,
            check_md5: self.check_md5,
            check_ack: self.check_ack,
            check_timestamp: self.check_timestamp,
            validate_ip_total_len: self.validate_ip_total_len,
            segment_overlap: self.segment_overlap,
            ip_frag_overlap: self.ip_frag_overlap,
            rst_resync_prob: self.rst_resync_prob,
            rst_resync_prob_handshake: self.rst_resync_prob_handshake,
            overload_miss_prob: self.overload_miss_prob,
            blacklist_duration: millis("blacklist_duration_ms", self.blacklist_duration_ms)?,
            reaction_delay: Duration::from_micros(self.reaction_delay_us),
            max_tcbs: self.max_tcbs,
            eviction: self.eviction,
            resync_storm_window: millis("resync_storm_window_ms", self.resync_storm_window_ms)?,
            resync_storm_threshold: self.resync_storm_threshold,
            censor_responses: self.censor_responses,
            inject_blockpage: self.inject_blockpage,
            dns_poison: self.dns_poison,
            tor_filter: self.tor_filter,
            active_probing: self.active_probing,
            vpn_dpi: self.vpn_dpi,
            chaos_rst_inject_prob: 1.0,
            chaos_blacklist_jitter: 0.0,
            chaos_device_flap_prob: 0.0,
            state_shards: 1,
            shard_seed: 0,
            rules: if rules == *shared { shared } else { Arc::new(rules) },
            profile_tag: match self.name.as_str() {
                "gfw_prior" => ProfileTag::Prior,
                "gfw_evolved" => ProfileTag::Evolved,
                "turkmenistan" => ProfileTag::Turkmenistan,
                _ => ProfileTag::Custom,
            },
        };
        cfg.validate().map_err(|e| format!("profile {}: {e}", self.name))?;
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

fn apply_key(p: &mut CensorProfile, sect: &str, key: &str, value: &str) -> Result<(), String> {
    let bad = |what: &str, v: &str, options: &str| format!("bad {what} `{v}` (expected one of: {options})");
    match (sect, key) {
        ("censor", "name") => p.name = parse_string(value)?,
        ("censor", "generation") => {
            p.generation = match parse_string(value)?.as_str() {
                "old" => GfwGeneration::Old,
                "evolved" => GfwGeneration::Evolved,
                other => return Err(bad("generation", other, "old, evolved")),
            }
        }
        ("censor", "type1") => p.type1 = parse_bool(value)?,
        ("censor", "type2") => p.type2 = parse_bool(value)?,
        ("validation", "checksum") => p.validate_checksum = parse_bool(value)?,
        ("validation", "md5") => p.check_md5 = parse_bool(value)?,
        ("validation", "ack") => p.check_ack = parse_bool(value)?,
        ("validation", "timestamp") => p.check_timestamp = parse_bool(value)?,
        ("validation", "ip_total_len") => p.validate_ip_total_len = parse_bool(value)?,
        ("stream", "segment_overlap") => {
            p.segment_overlap = match parse_string(value)?.as_str() {
                "first_wins" => intang_tcpstack::reasm::SegmentOverlapPolicy::FirstWins,
                "last_wins" => intang_tcpstack::reasm::SegmentOverlapPolicy::LastWins,
                other => return Err(bad("segment_overlap", other, "first_wins, last_wins")),
            }
        }
        ("stream", "ip_frag_overlap") => {
            p.ip_frag_overlap = match parse_string(value)?.as_str() {
                "first_wins" => intang_packet::frag::OverlapPolicy::FirstWins,
                "last_wins" => intang_packet::frag::OverlapPolicy::LastWins,
                other => return Err(bad("ip_frag_overlap", other, "first_wins, last_wins")),
            }
        }
        ("dynamics", "rst_resync_prob") => p.rst_resync_prob = parse_f64(value)?,
        ("dynamics", "rst_resync_prob_handshake") => p.rst_resync_prob_handshake = parse_f64(value)?,
        ("dynamics", "overload_miss_prob") => p.overload_miss_prob = parse_f64(value)?,
        ("dynamics", "blacklist_duration_ms") => p.blacklist_duration_ms = parse_u64(value)?,
        ("dynamics", "reaction_delay_us") => p.reaction_delay_us = parse_u64(value)?,
        ("dynamics", "max_tcbs") => p.max_tcbs = parse_usize(value)?,
        ("dynamics", "eviction") => {
            p.eviction = match parse_string(value)?.as_str() {
                "oldest" => EvictionPolicy::Oldest,
                "lru" => EvictionPolicy::Lru,
                other => return Err(bad("eviction", other, "oldest, lru")),
            }
        }
        ("dynamics", "resync_storm_window_ms") => p.resync_storm_window_ms = parse_u64(value)?,
        ("dynamics", "resync_storm_threshold") => p.resync_storm_threshold = parse_usize(value)?,
        ("actions", "censor_responses") => p.censor_responses = parse_bool(value)?,
        ("actions", "inject_blockpage") => p.inject_blockpage = parse_bool(value)?,
        ("protocols", "dns_poison") => p.dns_poison = parse_bool(value)?,
        ("protocols", "tor_filter") => p.tor_filter = parse_bool(value)?,
        ("protocols", "active_probing") => p.active_probing = parse_bool(value)?,
        ("protocols", "vpn_dpi") => p.vpn_dpi = parse_bool(value)?,
        ("rules", "keywords") => p.keywords = parse_string_array(value)?,
        ("rules", "domains") => p.domains = parse_string_array(value)?,
        ("rules", "tor_fingerprint") => p.tor_fingerprint = parse_bool(value)?,
        ("rules", "vpn_fingerprint") => p.vpn_fingerprint = parse_bool(value)?,
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

    #[test]
    fn paper_rules_compile_to_the_shared_arc() {
        // Not just content-equal: the literal process-wide Arc, so the
        // device's shared-automaton fast path can't tell profile from
        // builtin even by pointer identity.
        for p in [CensorProfile::gfw_evolved(), CensorProfile::gfw_prior()] {
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
    fn durations_that_overflow_the_clock_fail_at_compile() {
        for key in ["blacklist_duration_ms", "resync_storm_window_ms"] {
            let text = format!("[censor]\nname = \"x\"\n[dynamics]\n{key} = 18446744073709551615\n");
            let p = CensorProfile::parse(&text).unwrap();
            let err = p.compile().unwrap_err();
            assert!(err.contains(key) && err.contains("overflows"), "compile error names the key: {err}");
        }
    }

    #[test]
    fn every_schema_key_lands_in_its_own_field() {
        // One key per parse, set to a non-default value: the parsed profile
        // must equal the defaults with exactly that field changed.
        type Set = fn(&mut CensorProfile);
        let cases: [(&str, &str, &str, Set); 33] = [
            ("censor", "generation", "\"old\"", |p| p.generation = GfwGeneration::Old),
            ("censor", "type1", "false", |p| p.type1 = false),
            ("censor", "type2", "false", |p| p.type2 = false),
            ("validation", "checksum", "true", |p| p.validate_checksum = true),
            ("validation", "md5", "true", |p| p.check_md5 = true),
            ("validation", "ack", "true", |p| p.check_ack = true),
            ("validation", "timestamp", "true", |p| p.check_timestamp = true),
            ("validation", "ip_total_len", "true", |p| p.validate_ip_total_len = true),
            ("stream", "segment_overlap", "\"last_wins\"", |p| {
                p.segment_overlap = intang_tcpstack::reasm::SegmentOverlapPolicy::LastWins
            }),
            ("stream", "ip_frag_overlap", "\"last_wins\"", |p| {
                p.ip_frag_overlap = intang_packet::frag::OverlapPolicy::LastWins
            }),
            ("dynamics", "rst_resync_prob", "0.31", |p| p.rst_resync_prob = 0.31),
            ("dynamics", "rst_resync_prob_handshake", "0.32", |p| {
                p.rst_resync_prob_handshake = 0.32
            }),
            ("dynamics", "overload_miss_prob", "0.33", |p| p.overload_miss_prob = 0.33),
            ("dynamics", "blacklist_duration_ms", "1_234", |p| p.blacklist_duration_ms = 1_234),
            ("dynamics", "reaction_delay_us", "567", |p| p.reaction_delay_us = 567),
            ("dynamics", "max_tcbs", "89", |p| p.max_tcbs = 89),
            ("dynamics", "eviction", "\"lru\"", |p| p.eviction = EvictionPolicy::Lru),
            ("dynamics", "resync_storm_window_ms", "250", |p| p.resync_storm_window_ms = 250),
            ("dynamics", "resync_storm_threshold", "3", |p| p.resync_storm_threshold = 3),
            ("actions", "censor_responses", "true", |p| p.censor_responses = true),
            ("actions", "inject_blockpage", "true", |p| p.inject_blockpage = true),
            ("protocols", "dns_poison", "false", |p| p.dns_poison = false),
            ("protocols", "tor_filter", "false", |p| p.tor_filter = false),
            ("protocols", "active_probing", "false", |p| p.active_probing = false),
            ("protocols", "vpn_dpi", "true", |p| p.vpn_dpi = true),
            ("rules", "keywords", "[\"falun\", \"tiananmen\"]", |p| {
                p.keywords = vec!["falun".to_owned(), "tiananmen".to_owned()]
            }),
            ("rules", "domains", "[]", |p| p.domains = Vec::new()),
            ("rules", "tor_fingerprint", "false", |p| p.tor_fingerprint = false),
            ("rules", "vpn_fingerprint", "false", |p| p.vpn_fingerprint = false),
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
