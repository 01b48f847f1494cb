//! # intang-faults
//!
//! Seeded, deterministic fault injection for the YSINM reproduction.
//!
//! The paper's numbers were measured over noisy real Internet paths against
//! a censor that behaves inconsistently across time and vantage point
//! (Ensafi et al.: probabilistic, spatially non-uniform RST injection;
//! Winter & Lindskog: timing-variable active probing). This crate turns a
//! scenario seed into a [`FaultPlan`] — a concrete realization of that
//! noise for one trial:
//!
//! * per-link faults ([`intang_netsim::LinkFaults`]): Gilbert–Elliott loss
//!   bursts, reordering, duplication, latency jitter, MTU clamps;
//! * mid-trial **route flaps** that change a link's hop count (and thereby
//!   the TTL distance INTANG measured);
//! * censor-side **chaos** mapped onto `GfwConfig`'s `chaos_*` knobs;
//! * middlebox profile perturbation.
//!
//! A trial that has a plan also runs the INTANG engine in its robustness
//! mode (`IntangConfig::robust`).
//!
//! Determinism contract: `FaultPlan::derive(cfg, trial_seed)` is a pure
//! function of its arguments. The trial seed already encodes (master seed,
//! vantage point, site, trial index), so a sweep re-run at any worker count
//! replays byte-identical plans — and `derive` returns `None` for a
//! zero-intensity config without consuming any randomness, keeping
//! fault-free runs byte-identical to pre-fault builds.

use intang_netsim::{Duration, GilbertElliott, Instant, LinkFaults, SimRng};

/// Sweep-level fault configuration: one master `intensity` in `[0, 1]`.
/// Every category (link faults, route flaps, censor chaos, middlebox
/// perturbation) scales linearly with it; an intensity of 0 disables the
/// layer entirely.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Master fault intensity in `[0, 1]`; 0.0 is an exact no-op.
    pub intensity: f64,
}

impl FaultConfig {
    /// The default: no faults at all.
    pub fn off() -> FaultConfig {
        FaultConfig::at_intensity(0.0)
    }

    /// All categories scaled by one master intensity.
    pub fn at_intensity(intensity: f64) -> FaultConfig {
        FaultConfig { intensity }
    }

    pub fn enabled(&self) -> bool {
        self.intensity > 0.0
    }
}

impl Default for FaultConfig {
    fn default() -> FaultConfig {
        FaultConfig::off()
    }
}

/// One mid-trial route change: at `at`, the chosen link's hop count moves
/// by `delta` (shrinking or growing the path), invalidating previously
/// measured TTL distances (§3.4: "routes are dynamic and could change
/// unexpectedly").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteFlap {
    pub at: Instant,
    /// Flap the link before the censor tap (client side) rather than the
    /// server-side link.
    pub pre_censor: bool,
    /// Hop-count change magnitude.
    pub delta: u8,
    /// Shrink the path instead of growing it.
    pub shrink: bool,
}

/// Censor-side chaos for one trial, mapped onto `GfwConfig::chaos_*`.
#[derive(Debug, Clone, PartialEq)]
pub struct CensorChaos {
    /// Probability an injection volley actually fires (1.0 = no chaos).
    pub rst_inject_prob: f64,
    /// Fractional blacklist-duration jitter (0.0 = none).
    pub blacklist_jitter: f64,
    /// Per-volley device flap probability (0.0 = none).
    pub device_flap_prob: f64,
}

impl CensorChaos {
    pub fn none() -> CensorChaos {
        CensorChaos {
            rst_inject_prob: 1.0,
            blacklist_jitter: 0.0,
            device_flap_prob: 0.0,
        }
    }
}

/// The realized fault schedule for ONE trial: which links hurt and how,
/// when routes flap, and how the censor and middleboxes misbehave.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Faults on the client's access link.
    pub access: LinkFaults,
    /// Faults on the long-haul (censored) core link.
    pub core: LinkFaults,
    /// Faults on the server-side link.
    pub server: LinkFaults,
    /// Mid-trial route flaps, sorted by time.
    pub route_flaps: Vec<RouteFlap>,
    pub censor: CensorChaos,
    /// Perturbed `drop_no_flag` probability for the mid-path field filter,
    /// if the plan perturbs the middlebox profile at all.
    pub midpath_drop_no_flag: Option<f64>,
}

impl FaultPlan {
    /// Realize a plan from a per-trial seed. Pure: same `(cfg, seed)` →
    /// byte-identical plan, regardless of worker count or call order.
    /// Returns `None` (drawing no randomness) when faults are disabled.
    pub fn derive(cfg: &FaultConfig, trial_seed: u64) -> Option<FaultPlan> {
        if !cfg.enabled() {
            return None;
        }
        // Decorrelate the plan stream from the trial's own RNG stream.
        let mut rng = SimRng::seed_from(trial_seed ^ 0xFA17_5EED_C0FF_EE42);
        let i = cfg.intensity.clamp(0.0, 1.0);

        Some(FaultPlan {
            access: access_faults(&mut rng, i),
            core: core_faults(&mut rng, i),
            server: server_faults(&mut rng, i),
            route_flaps: route_flaps(&mut rng, i),
            censor: censor_chaos(&mut rng, i),
            midpath_drop_no_flag: midpath_perturbation(&mut rng, i),
        })
    }

    /// True when every component of the plan is a no-op (possible at very
    /// low intensities — the draws all came up empty).
    pub fn is_inert(&self) -> bool {
        self.access.is_inert()
            && self.core.is_inert()
            && self.server.is_inert()
            && self.route_flaps.is_empty()
            && self.censor == CensorChaos::none()
            && self.midpath_drop_no_flag.is_none()
    }

    /// Candidate one-component simplifications of this plan, used by the
    /// simcheck shrinker to minimize a violating trial: each entry is the
    /// plan with exactly one component neutralized, labeled by what was
    /// dropped. Components that are already inert produce no candidate.
    pub fn shrink_candidates(&self) -> Vec<(&'static str, FaultPlan)> {
        let mut out = Vec::new();
        if !self.access.is_inert() {
            out.push((
                "access-link-faults",
                FaultPlan {
                    access: LinkFaults::default(),
                    ..self.clone()
                },
            ));
        }
        if !self.core.is_inert() {
            out.push((
                "core-link-faults",
                FaultPlan {
                    core: LinkFaults::default(),
                    ..self.clone()
                },
            ));
        }
        if !self.server.is_inert() {
            out.push((
                "server-link-faults",
                FaultPlan {
                    server: LinkFaults::default(),
                    ..self.clone()
                },
            ));
        }
        if !self.route_flaps.is_empty() {
            out.push((
                "route-flaps",
                FaultPlan {
                    route_flaps: Vec::new(),
                    ..self.clone()
                },
            ));
        }
        if self.censor != CensorChaos::none() {
            out.push((
                "censor-chaos",
                FaultPlan {
                    censor: CensorChaos::none(),
                    ..self.clone()
                },
            ));
        }
        if self.midpath_drop_no_flag.is_some() {
            out.push((
                "midpath-perturbation",
                FaultPlan {
                    midpath_drop_no_flag: None,
                    ..self.clone()
                },
            ));
        }
        out
    }
}

/// Uniform fraction in `[0, 1]` used to spread fault parameters.
fn frac(rng: &mut SimRng) -> f64 {
    rng.range_u64(0, 1_000_001) as f64 / 1_000_000.0
}

/// Access links sit inside the client's ISP: short, mostly clean. Jitter
/// only.
fn access_faults(rng: &mut SimRng, li: f64) -> LinkFaults {
    let mut f = LinkFaults::default();
    if li > 0.0 && rng.chance(0.5 * li) {
        f.jitter = Duration::from_micros(100 + (1_900.0 * li * frac(rng)) as u64);
    }
    f
}

/// The long-haul core link takes the brunt: burst loss, reordering,
/// duplication, jitter, and (rarely) a path-MTU clamp.
fn core_faults(rng: &mut SimRng, li: f64) -> LinkFaults {
    let mut f = LinkFaults::default();
    if li <= 0.0 {
        return f;
    }
    if rng.chance(0.85 * li) {
        // loss_good starts at 0; the trial builder folds in the link's own
        // residual loss so the burst channel never *reduces* natural loss.
        let p_enter = 0.01 + 0.05 * li * frac(rng);
        let p_exit = 0.25 + 0.25 * frac(rng);
        let loss_bad = 0.35 + 0.45 * li;
        f.burst = Some(GilbertElliott::new(p_enter, p_exit, 0.0, loss_bad));
    }
    if rng.chance(0.6 * li) {
        f.reorder_prob = 0.05 + 0.25 * li * frac(rng);
        f.reorder_delay = Duration::from_micros(2_000 + (10_000.0 * frac(rng)) as u64);
    }
    if rng.chance(0.5 * li) {
        f.dup_prob = 0.03 + 0.12 * li * frac(rng);
    }
    if rng.chance(0.7 * li) {
        f.jitter = Duration::from_micros((4_000.0 * li * frac(rng)) as u64 + 1);
    }
    if rng.chance(0.08 * li) {
        // Catastrophic but rare: full-size segments silently die; the trial
        // fails silently and the §5 diagnosis calls it middlebox
        // interference (which is what a real clamping hop looks like).
        f.mtu = Some(1_200);
    }
    f
}

/// Server-side links: milder burst loss and jitter.
fn server_faults(rng: &mut SimRng, li: f64) -> LinkFaults {
    let mut f = LinkFaults::default();
    if li <= 0.0 {
        return f;
    }
    if rng.chance(0.4 * li) {
        let p_enter = 0.005 + 0.03 * li * frac(rng);
        f.burst = Some(GilbertElliott::new(p_enter, 0.4, 0.0, 0.25 + 0.35 * li));
    }
    if rng.chance(0.5 * li) {
        f.jitter = Duration::from_micros((2_000.0 * li * frac(rng)) as u64 + 1);
    }
    f
}

fn route_flaps(rng: &mut SimRng, ri: f64) -> Vec<RouteFlap> {
    let mut flaps = Vec::new();
    if ri > 0.0 && rng.chance((0.7 * ri).min(1.0)) {
        let n = 1 + usize::from(rng.chance(0.35 * ri));
        for _ in 0..n {
            flaps.push(RouteFlap {
                // After the handshake window, well before the trial deadline.
                at: Instant(rng.range_u64(200_000, 2_500_000)),
                pre_censor: rng.chance(0.5),
                delta: 1 + (rng.next_u32() % 3) as u8,
                shrink: rng.chance(0.5),
            });
        }
        flaps.sort_by_key(|f| f.at);
    }
    flaps
}

fn censor_chaos(rng: &mut SimRng, ci: f64) -> CensorChaos {
    if ci <= 0.0 {
        return CensorChaos::none();
    }
    CensorChaos {
        // Ensafi et al.: reset injection rates vary by vantage point; at
        // full intensity a trial can see as little as ~45 % of volleys.
        rst_inject_prob: 1.0 - 0.55 * ci * frac(rng),
        blacklist_jitter: 0.4 * ci * frac(rng),
        device_flap_prob: 0.20 * ci * frac(rng),
    }
}

fn midpath_perturbation(rng: &mut SimRng, mi: f64) -> Option<f64> {
    if mi > 0.0 && rng.chance(0.35 * mi) {
        Some(0.3 + 0.5 * frac(rng))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_intensity_derives_nothing() {
        assert_eq!(FaultPlan::derive(&FaultConfig::off(), 12345), None);
        assert_eq!(FaultPlan::derive(&FaultConfig::at_intensity(0.0), 1), None);
    }

    #[test]
    fn same_seed_same_plan() {
        let cfg = FaultConfig::at_intensity(0.8);
        for seed in [1u64, 42, 0xdead_beef, u64::MAX] {
            assert_eq!(FaultPlan::derive(&cfg, seed), FaultPlan::derive(&cfg, seed));
        }
        assert_ne!(
            FaultPlan::derive(&cfg, 1),
            FaultPlan::derive(&cfg, 2),
            "different seeds should (almost surely) realize different plans"
        );
    }

    #[test]
    fn full_intensity_hits_most_trials() {
        let cfg = FaultConfig::at_intensity(1.0);
        let active = (0..100u64)
            .filter(|&s| !FaultPlan::derive(&cfg, s).expect("enabled").is_inert())
            .count();
        assert!(active > 90, "full intensity should fault nearly every trial, got {active}/100");
    }

    #[test]
    fn route_flaps_are_sorted_and_in_window() {
        let cfg = FaultConfig::at_intensity(1.0);
        for seed in 0..200u64 {
            let plan = FaultPlan::derive(&cfg, seed).expect("enabled");
            let times: Vec<u64> = plan.route_flaps.iter().map(|f| f.at.0).collect();
            let mut sorted = times.clone();
            sorted.sort_unstable();
            assert_eq!(times, sorted);
            for f in &plan.route_flaps {
                assert!((200_000..2_500_000).contains(&f.at.0));
                assert!((1..=3).contains(&f.delta));
            }
        }
    }

    #[test]
    fn censor_chaos_stays_in_probability_range() {
        let cfg = FaultConfig::at_intensity(1.0);
        for seed in 0..200u64 {
            let c = FaultPlan::derive(&cfg, seed).expect("enabled").censor;
            assert!((0.0..=1.0).contains(&c.rst_inject_prob));
            assert!(c.rst_inject_prob >= 0.45 - 1e-9);
            assert!((0.0..=0.4).contains(&c.blacklist_jitter));
            assert!((0.0..=0.2).contains(&c.device_flap_prob));
        }
    }
}
