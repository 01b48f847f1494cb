//! Vantage points and website populations.
//!
//! The paper measures from 11 vantage points in 9 cities across 3 ISPs
//! (§3.3) against 77 Alexa-top websites (one per AS), and — for the
//! inbound direction — from 4 points outside China against 33 Chinese
//! sites (§7). We reproduce the *structure*: the exact Table 2 middlebox
//! stacks, the Tor-filtering geography of §7.3, and a deterministic
//! synthetic website population whose diversity knobs (server kernel
//! versions, GFW device generations, path lengths, middleboxes, loss) are
//! calibrated to the paper's measured failure modes (see DESIGN.md,
//! "Mechanism → measured-rate calibration").

use intang_gfw::config::GfwConfig;
#[cfg(test)]
use intang_gfw::config::GfwGeneration;
use intang_gfw::CensorProfile;
use intang_middlebox::profiles::ClientSideProfile;
use intang_netsim::SimRng;
use intang_packet::frag::OverlapPolicy;
use intang_tcpstack::reasm::SegmentOverlapPolicy;
use intang_tcpstack::StackProfile;
use std::net::Ipv4Addr;

/// One measurement client.
#[derive(Debug, Clone)]
pub struct VantagePoint {
    pub name: &'static str,
    pub city: &'static str,
    pub isp: &'static str,
    pub profile: ClientSideProfile,
    pub addr: Ipv4Addr,
    /// Tor-filtering GFW devices on paths from here (§7.3: absent from the
    /// four Northern-China vantage points).
    pub tor_filtered: bool,
    /// Hops from the client to its provider edge.
    pub access_hops: u8,
    /// The client sits outside China (inbound measurement, §7): the censor
    /// is near the destination servers.
    pub abroad: bool,
}

impl VantagePoint {
    /// The paper's 11 vantage points: 6 Aliyun + 3 QCloud (cloud) and the
    /// two China Unicom home networks in Shijiazhuang and Tianjin.
    pub fn inside_china() -> Vec<VantagePoint> {
        use ClientSideProfile::*;
        let spec: [(&str, &str, &str, ClientSideProfile, bool); 11] = [
            ("aliyun-bj", "Beijing", "Aliyun", Aliyun, false),
            ("aliyun-sh", "Shanghai", "Aliyun", Aliyun, true),
            ("aliyun-gz", "Guangzhou", "Aliyun", Aliyun, true),
            ("aliyun-sz", "Shenzhen", "Aliyun", Aliyun, true),
            ("aliyun-hz", "Hangzhou", "Aliyun", Aliyun, true),
            ("aliyun-qd", "Qingdao", "Aliyun", Aliyun, false),
            ("qcloud-bj", "Beijing", "QCloud", QCloud, false),
            ("qcloud-zjk", "Zhangjiakou", "QCloud", QCloud, false),
            ("qcloud-sh", "Shanghai", "QCloud", QCloud, true),
            ("unicom-sjz", "Shijiazhuang", "China Unicom", UnicomShijiazhuang, true),
            ("unicom-tj", "Tianjin", "China Unicom", UnicomTianjin, true),
        ];
        spec.iter()
            .enumerate()
            .map(|(i, (name, city, isp, profile, tor_filtered))| VantagePoint {
                name,
                city,
                isp,
                profile: *profile,
                addr: Ipv4Addr::new(10, 10, i as u8 + 1, 2),
                tor_filtered: *tor_filtered,
                access_hops: 2 + (i as u8 % 3),
                abroad: false,
            })
            .collect()
    }

    /// The 4 outside-China vantage points of §7 (EC2: US, UK, DE, JP) —
    /// clean client-side paths, long hauls.
    pub fn outside_china() -> Vec<VantagePoint> {
        ["ec2-us", "ec2-uk", "ec2-de", "ec2-jp"]
            .iter()
            .enumerate()
            .map(|(i, name)| VantagePoint {
                name,
                city: "abroad",
                isp: "EC2",
                profile: ClientSideProfile::Clean,
                addr: Ipv4Addr::new(10, 20, i as u8 + 1, 2),
                tor_filtered: true, // inbound paths always cross filtering borders
                access_hops: 3,
                abroad: true,
            })
            .collect()
    }
}

/// Which censor model populates a path's devices.
#[derive(Debug, Clone)]
pub enum CensorModel {
    /// The site's prior/evolved device slots, each a compiled censor
    /// profile with the per-site overrides (device mix, segment overlap,
    /// resync probabilities) applied on top. An empty slot runs
    /// the builtin `gfw_prior`/`gfw_evolved` profile from its process-wide
    /// cache ([`GfwConfig::old`]/[`GfwConfig::evolved`]), so a generated
    /// scenario stores no config per site. Note the site's calibrated
    /// resync draws overwrite the evolved slot's resync knobs — resync
    /// heterogeneity from `[heterogeneity]` is only fully visible in
    /// `Custom` mode.
    Profiles {
        prior: Option<GfwConfig>,
        evolved: Option<GfwConfig>,
    },
    /// A single censor config replacing the per-site GFW device mix
    /// entirely. This is what `--censor-profile` selects for a whole
    /// sweep, and how the §8 arms race runs its hardened censors.
    Custom(GfwConfig),
}

/// One target website and the path characteristics toward it.
#[derive(Debug, Clone)]
pub struct Website {
    pub name: String,
    pub addr: Ipv4Addr,
    pub alexa_rank: u32,
    pub server_profile: StackProfile,
    /// IP fragment overlap preference of the server's stack (§3.4 notes
    /// servers sometimes keep the junk "just like the GFW").
    pub server_ip_overlap: OverlapPolicy,
    /// GFW device generations deployed on this path.
    pub old_device: bool,
    pub evolved_device: bool,
    /// The evolved devices' TCP-segment overlap preference on this path
    /// (Khattak-era last-wins vs robust first-wins).
    pub gfw_seg_overlap: SegmentOverlapPolicy,
    /// Sticky probability that an RST resynchronizes rather than tears
    /// down (Hypothesized New Behavior 3).
    pub rst_resync_prob: f64,
    pub rst_resync_prob_handshake: f64,
    /// Hops: client edge → GFW tap, and GFW tap → server.
    pub core_hops: u8,
    pub server_hops: u8,
    /// A sequence-checking firewall sits in front of the server (§3.4).
    pub server_seqfw: bool,
    /// A connection-tracking firewall two hops before the server: normally
    /// outside the reach of TTL-scoped insertions, but route shrinkage puts
    /// it in range and a traversing insertion RST silently kills the flow
    /// (the paper's Failure-1 "hitting server-side middleboxes", §7.1).
    pub server_conntrack: bool,
    /// That firewall validates TCP checksums (and so drops corrupt
    /// insertion junk harmlessly instead of accepting it).
    pub seqfw_validates_checksum: bool,
    /// The server is flaky and never answers (background Failure 1 noise
    /// present even with no strategy, §3.4).
    pub flaky_server: bool,
    /// An unattributed middle-path filter drops flag-less segments (the
    /// bulk of Table 1's no-flag Failure 2 that Table 2's client-side
    /// probing cannot explain).
    pub path_drops_noflag: bool,
    /// Which censor model the path's devices are built from.
    pub censor: CensorModel,
    /// Per-link loss probability.
    pub loss: f64,
    /// One-way core latency in milliseconds.
    pub latency_ms: u64,
}

impl Website {
    /// Build the censor configuration(s) for this path.
    pub fn gfw_configs(&self) -> Vec<GfwConfig> {
        let mut v = Vec::new();
        match &self.censor {
            CensorModel::Profiles { prior, evolved } => {
                if self.old_device {
                    let mut c = prior.clone().unwrap_or_else(GfwConfig::old);
                    c.segment_overlap = SegmentOverlapPolicy::LastWins;
                    v.push(c);
                }
                if self.evolved_device {
                    let mut c = evolved.clone().unwrap_or_else(GfwConfig::evolved);
                    c.segment_overlap = self.gfw_seg_overlap;
                    c.rst_resync_prob = self.rst_resync_prob;
                    c.rst_resync_prob_handshake = self.rst_resync_prob_handshake;
                    v.push(c);
                }
            }
            CensorModel::Custom(cfg) => v.push(cfg.clone()),
        }
        v
    }
}

/// Deterministically generate a website population.
///
/// `inbound` switches to the outside→China shape of §7: short GFW→server
/// gaps (devices near or co-located with the server) that make TTL scoping
/// hard.
pub fn generate_websites(count: usize, master_seed: u64, inbound: bool) -> Vec<Website> {
    let mut rng = SimRng::seed_from(master_seed);
    (0..count)
        .map(|i| {
            let r = rng.next_u32();
            // Server kernel mix: mostly modern, a tail of older stacks
            // (§5.3 cross-validation + §3.4 pre-3.8 oddity).
            let server_profile = match r % 100 {
                0..=64 => StackProfile::linux_4_4(),
                65..=76 => StackProfile::linux_4_0(),
                77..=91 => StackProfile::linux_3_14(),
                92..=94 => StackProfile::linux_2_6_34(),
                95..=96 => StackProfile::linux_2_4_37(),
                _ => StackProfile::linux_pre_3_8(),
            };
            // GFW generation mix: a small share of paths still run the old
            // model alone (why TCB-creation still occasionally works,
            // Table 1); most are evolved; some see both.
            let gen_draw = rng.next_u32() % 100;
            let (old_device, evolved_device) = if gen_draw < 4 {
                (true, false)
            } else if gen_draw < 85 {
                (false, true)
            } else {
                (true, true)
            };
            let gfw_seg_overlap = if rng.chance(0.30) {
                SegmentOverlapPolicy::LastWins
            } else {
                SegmentOverlapPolicy::FirstWins
            };
            let server_hops = if inbound {
                // Inbound: GFW devices within a few hops of the server,
                // sometimes co-located (§7.1).
                if rng.chance(0.2) {
                    1 // effectively co-located: TTL scoping hopeless
                } else {
                    2 + (rng.next_u32() % 4) as u8 // 2..=5
                }
            } else {
                3 + (rng.next_u32() % 4) as u8 // 3..=6
            };
            Website {
                name: format!("site-{i}.example"),
                addr: Ipv4Addr::new(93, 184, (i / 200) as u8 + 1, (i % 200) as u8 + 1),
                alexa_rank: 41 + (i as u32) * 27 % 2050,
                server_profile,
                server_ip_overlap: if rng.chance(0.8) {
                    OverlapPolicy::LastWins
                } else {
                    OverlapPolicy::FirstWins
                },
                old_device,
                evolved_device,
                gfw_seg_overlap,
                rst_resync_prob: 0.18 + f64::from(rng.next_u32() % 100) / 1000.0, // 0.18..0.28
                rst_resync_prob_handshake: 0.8,
                core_hops: 5 + (rng.next_u32() % 6) as u8, // 5..=10
                server_hops,
                server_seqfw: rng.chance(0.07),
                server_conntrack: rng.chance(0.10),
                seqfw_validates_checksum: rng.chance(0.8),
                flaky_server: rng.chance(0.005),
                path_drops_noflag: rng.chance(0.42),
                censor: CensorModel::Profiles {
                    prior: None,
                    evolved: None,
                },
                loss: 0.002 + f64::from(rng.next_u32() % 10) / 1000.0, // 0.2%..1.2%
                latency_ms: 10 + u64::from(rng.next_u32() % 40),
            }
        })
        .collect()
}

/// A full measurement scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    pub vantage_points: Vec<VantagePoint>,
    pub websites: Vec<Website>,
    pub master_seed: u64,
}

impl Scenario {
    /// §3.3: 11 vantage points × 77 websites.
    pub fn paper_inside(master_seed: u64) -> Scenario {
        Scenario {
            vantage_points: VantagePoint::inside_china(),
            websites: generate_websites(77, master_seed, false),
            master_seed,
        }
    }

    /// §7: 4 outside vantage points × 33 Chinese websites.
    pub fn paper_outside(master_seed: u64) -> Scenario {
        Scenario {
            vantage_points: VantagePoint::outside_china(),
            websites: generate_websites(33, master_seed ^ 0xabcd, true),
            master_seed,
        }
    }

    /// A small smoke-test scenario for fast tests.
    pub fn smoke(master_seed: u64) -> Scenario {
        let mut s = Scenario::paper_inside(master_seed);
        s.vantage_points.truncate(3);
        s.websites.truncate(5);
        s
    }

    /// Fill every site's prior/evolved device slots with profile-compiled
    /// configs. Each site's devices are compiled per-device (the
    /// `[heterogeneity]` hooks), with the device seed derived by hashing
    /// the site name — never by drawing from the scenario RNG, which would
    /// perturb every seeded draw downstream and break byte-identity with
    /// the builtin slots.
    pub fn with_profiles(mut self, prior: &CensorProfile, evolved: &CensorProfile) -> Result<Scenario, String> {
        for w in &mut self.websites {
            let seed = site_device_seed(&w.name, self.master_seed);
            w.censor = CensorModel::Profiles {
                prior: Some(prior.compile_for_device(seed)?),
                // The evolved slot is a different physical device on the
                // same path: a distinct heterogeneity stream.
                evolved: Some(evolved.compile_for_device(seed ^ 1)?),
            };
        }
        Ok(self)
    }

    /// Replace every site's GFW device mix with one profile-compiled
    /// censor (per-device heterogeneity still applies). This is the
    /// `--censor-profile` semantics: the profile is authoritative.
    pub fn with_custom_censor(mut self, profile: &CensorProfile) -> Result<Scenario, String> {
        for w in &mut self.websites {
            let seed = site_device_seed(&w.name, self.master_seed);
            w.censor = CensorModel::Custom(profile.compile_for_device(seed)?);
        }
        Ok(self)
    }
}

/// Per-site device seed for profile heterogeneity: a hash of the site name
/// and master seed, deliberately not an RNG draw (see `with_profiles`).
fn site_device_seed(site: &str, master_seed: u64) -> u64 {
    use std::hash::Hasher;
    let mut h = intang_packet::fxhash::FxHasher::default();
    h.write(site.as_bytes());
    h.write_u64(master_seed);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eleven_vantage_points_match_table2_fractions() {
        let vps = VantagePoint::inside_china();
        assert_eq!(vps.len(), 11);
        let aliyun = vps.iter().filter(|v| v.profile == ClientSideProfile::Aliyun).count();
        let qcloud = vps.iter().filter(|v| v.profile == ClientSideProfile::QCloud).count();
        assert_eq!(aliyun, 6, "Aliyun(6/11) per Table 2");
        assert_eq!(qcloud, 3, "QCloud(3/11) per Table 2");
        // 9 distinct cities.
        let mut cities: Vec<_> = vps.iter().map(|v| v.city).collect();
        cities.sort();
        cities.dedup();
        assert_eq!(cities.len(), 9);
        // §7.3: exactly 4 Tor-unfiltered points in 3 cities, all northern.
        let unfiltered: Vec<_> = vps.iter().filter(|v| !v.tor_filtered).collect();
        assert_eq!(unfiltered.len(), 4);
        let mut ucities: Vec<_> = unfiltered.iter().map(|v| v.city).collect();
        ucities.sort();
        ucities.dedup();
        assert_eq!(ucities, vec!["Beijing", "Qingdao", "Zhangjiakou"]);
        // Distinct client addresses.
        let mut addrs: Vec<_> = vps.iter().map(|v| v.addr).collect();
        addrs.sort();
        addrs.dedup();
        assert_eq!(addrs.len(), 11);
    }

    #[test]
    fn website_population_is_deterministic_and_diverse() {
        let a = generate_websites(77, 42, false);
        let b = generate_websites(77, 42, false);
        assert_eq!(a.len(), 77);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.core_hops, y.core_hops);
            assert_eq!(x.old_device, y.old_device);
        }
        let old_only = a.iter().filter(|w| w.old_device && !w.evolved_device).count();
        assert!((1..=9).contains(&old_only), "a small share of old-only paths, got {old_only}");
        let evolved = a.iter().filter(|w| w.evolved_device).count();
        assert!(evolved > 60);
        // Distinct addresses (one per AS, §3.3).
        let mut addrs: Vec<_> = a.iter().map(|w| w.addr).collect();
        addrs.sort();
        addrs.dedup();
        assert_eq!(addrs.len(), 77);
    }

    #[test]
    fn inbound_paths_have_short_gfw_server_gaps() {
        let inbound = generate_websites(33, 7, true);
        let outbound = generate_websites(77, 7, false);
        assert!(inbound.iter().all(|w| w.server_hops <= 5));
        assert!(inbound.iter().any(|w| w.server_hops <= 1), "some co-located censors inbound");
        assert!(outbound.iter().all(|w| w.server_hops >= 3));
    }

    #[test]
    fn builtin_profiles_reproduce_builtin_gfw_configs_exactly() {
        // Slots filled by compiling the gfw_prior/gfw_evolved profiles per
        // device build *equal* censor configs to the empty (cached) slots
        // for every site, so the sweeps stay byte-identical.
        let s = Scenario::smoke(2017);
        let p = s
            .clone()
            .with_profiles(&CensorProfile::gfw_prior(), &CensorProfile::gfw_evolved())
            .unwrap();
        for (a, b) in s.websites.iter().zip(&p.websites) {
            assert_eq!(a.gfw_configs(), b.gfw_configs(), "site {}", a.name);
        }
    }

    #[test]
    fn custom_censor_replaces_the_device_mix() {
        let s = Scenario::smoke(2017).with_custom_censor(&CensorProfile::turkmenistan()).unwrap();
        for w in &s.websites {
            let cfgs = w.gfw_configs();
            assert_eq!(cfgs.len(), 1, "one authoritative censor per path");
            assert!(cfgs[0].inject_blockpage);
            assert!(cfgs[0].censor_responses);
        }
    }

    #[test]
    fn heterogeneous_profiles_vary_across_sites_deterministically() {
        let mut p = CensorProfile::gfw_evolved();
        p.het_overload_jitter = 0.02;
        let a = Scenario::smoke(2017).with_custom_censor(&p).unwrap();
        let b = Scenario::smoke(2017).with_custom_censor(&p).unwrap();
        let probs: Vec<f64> = a.websites.iter().map(|w| w.gfw_configs()[0].overload_miss_prob).collect();
        let again: Vec<f64> = b.websites.iter().map(|w| w.gfw_configs()[0].overload_miss_prob).collect();
        assert_eq!(probs, again, "device perturbation is a pure function of the seed");
        let mut distinct = probs.clone();
        distinct.sort_by(f64::total_cmp);
        distinct.dedup();
        assert!(distinct.len() > 1, "different sites draw different devices");
    }

    #[test]
    fn gfw_configs_reflect_device_mix() {
        let mut w = generate_websites(1, 1, false).remove(0);
        w.old_device = true;
        w.evolved_device = true;
        let cfgs = w.gfw_configs();
        assert_eq!(cfgs.len(), 2);
        assert_eq!(cfgs[0].generation, GfwGeneration::Old);
        assert_eq!(cfgs[1].generation, GfwGeneration::Evolved);
    }
}
