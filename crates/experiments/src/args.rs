//! Minimal flag parsing shared by the experiment binaries.

/// The usage text printed by `--help` and on parse errors.
const USAGE: &str = "flags: --trials N        trials per cell (default: per-experiment)\n       --seed S          master seed (default 2017)\n       --quick           shrink the scenario for a fast smoke run\n       --smoke           alias for --quick\n       --telemetry PATH  write JSONL metrics + failure diagnoses to PATH\n       --progress        live sweep console on stderr\n       --profile-folded PATH\n                         enable the span profiler and write folded stacks\n                         to PATH (one 'a;b;c nanos' line per stack)\n       --censor-profile SPEC\n                         run every censor device from a profile: a builtin\n                         name (gfw_prior, gfw_evolved, turkmenistan) or\n                         the path to a profile file; only table1, table4\n                         and metropolis honor it";

/// Parsed common flags.
#[derive(Debug, Clone)]
pub struct CommonArgs {
    /// Trials per (vantage point, site, strategy) cell.
    pub trials: u32,
    pub seed: u64,
    /// Shrink the scenario for quick runs.
    pub quick: bool,
    /// JSONL telemetry output path (`--telemetry PATH`).
    pub telemetry: Option<String>,
    /// Live sweep console on stderr (`--progress`).
    pub progress: bool,
    /// Folded-stack output path (`--profile-folded PATH`); also enables
    /// span profiling for the run.
    pub profile_folded: Option<String>,
    /// Censor profile spec (`--censor-profile SPEC`): a builtin name or
    /// the path to a profile file.
    pub censor_profile: Option<String>,
}

impl CommonArgs {
    /// Parse the process arguments; on a bad flag, print the error and
    /// usage to stderr and exit with status 2 (no panic, no backtrace).
    /// The run switches are read here too, so a bad `INTANG_*` switch
    /// value exits 2 the same way before any run starts.
    pub fn parse() -> CommonArgs {
        intang_telemetry::knobs::env();
        match CommonArgs::parse_from(std::env::args().skip(1)) {
            Ok(args) => args,
            Err(msg) => {
                eprintln!("error: {msg}");
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
        }
    }

    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Result<CommonArgs, String> {
        let mut out = CommonArgs {
            trials: 0,
            seed: 2017,
            quick: false,
            telemetry: None,
            progress: false,
            profile_folded: None,
            censor_profile: None,
        };
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--trials" => {
                    out.trials = match it.next() {
                        Some(v) => v.parse().map_err(|_| format!("--trials needs a number, got {v:?}"))?,
                        None => return Err("--trials needs a number".to_string()),
                    };
                }
                "--seed" => {
                    out.seed = match it.next() {
                        Some(v) => v.parse().map_err(|_| format!("--seed needs a number, got {v:?}"))?,
                        None => return Err("--seed needs a number".to_string()),
                    };
                }
                // --smoke is the CI-facing alias: same shrunken scenario.
                "--quick" | "--smoke" => out.quick = true,
                "--telemetry" => {
                    out.telemetry = Some(it.next().ok_or_else(|| "--telemetry needs a path".to_string())?);
                }
                "--progress" => out.progress = true,
                "--profile-folded" => {
                    out.profile_folded = Some(it.next().ok_or_else(|| "--profile-folded needs a path".to_string())?);
                }
                "--censor-profile" => {
                    out.censor_profile = Some(it.next().ok_or_else(|| "--censor-profile needs a name or path".to_string())?);
                }
                "--help" | "-h" => {
                    eprintln!("{USAGE}");
                    std::process::exit(0);
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(out)
    }

    /// Apply the observability flags to this thread: enables span
    /// profiling when `--profile-folded` was given. Call once per binary
    /// before running sweeps.
    pub fn apply_observability(&self) {
        if self.profile_folded.is_some() {
            intang_telemetry::spans::set_thread(Some(true));
        }
    }

    /// Write the merged folded-stack profile to the `--profile-folded`
    /// path (no-op when the flag is absent). One line per observed stack:
    /// `trial;gfw;dpi_scan 12345`.
    pub fn write_profile_folded(&self, profile: &intang_telemetry::SpanSheet) {
        let Some(path) = &self.profile_folded else { return };
        if let Err(e) = std::fs::write(path, profile.folded()) {
            eprintln!("warning: could not write folded profile to {path}: {e}");
        }
    }

    /// Resolve `--censor-profile` into a compiled censor config. `None`
    /// when the flag is absent; on an unresolvable or invalid profile,
    /// print the error and exit with status 2 (the CLI no-panic contract).
    pub fn censor_config(&self) -> Option<intang_gfw::GfwConfig> {
        let spec = self.censor_profile.as_deref()?;
        match intang_gfw::CensorProfile::resolve(spec).and_then(|p| p.compile()) {
            Ok(cfg) => Some(cfg),
            Err(msg) => {
                eprintln!("error: --censor-profile {spec}: {msg}");
                std::process::exit(2);
            }
        }
    }

    /// Apply `--censor-profile` to a scenario: every censor device in
    /// every site runs the compiled profile (with per-device heterogeneity
    /// when the profile asks for it). A no-op without the flag; exits 2 on
    /// an unresolvable or invalid profile.
    pub fn apply_censor_profile(&self, scenario: crate::scenario::Scenario) -> crate::scenario::Scenario {
        let Some(spec) = self.censor_profile.as_deref() else {
            return scenario;
        };
        let applied = intang_gfw::CensorProfile::resolve(spec).and_then(|p| scenario.with_custom_censor(&p));
        match applied {
            Ok(s) => s,
            Err(msg) => {
                eprintln!("error: --censor-profile {spec}: {msg}");
                std::process::exit(2);
            }
        }
    }

    /// Trials to use, with a per-experiment default.
    pub fn trials_or(&self, default: u32) -> u32 {
        if self.trials == 0 {
            if self.quick {
                (default / 4).max(2)
            } else {
                default
            }
        } else {
            self.trials
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_and_flags() {
        let a = CommonArgs::parse_from(Vec::new()).unwrap();
        assert_eq!(a.seed, 2017);
        assert_eq!(a.trials_or(50), 50);
        let a = CommonArgs::parse_from(vec!["--trials".into(), "7".into(), "--seed".into(), "9".into()]).unwrap();
        assert_eq!(a.trials_or(50), 7);
        assert_eq!(a.seed, 9);
        let a = CommonArgs::parse_from(vec!["--quick".into()]).unwrap();
        assert!(a.quick);
        assert_eq!(a.trials_or(48), 12);
        let a = CommonArgs::parse_from(vec!["--smoke".into()]).unwrap();
        assert!(a.quick, "--smoke is an alias for --quick");
    }

    #[test]
    fn telemetry_flag_takes_a_path() {
        let a = CommonArgs::parse_from(vec!["--telemetry".into(), "out.jsonl".into()]).unwrap();
        assert_eq!(a.telemetry.as_deref(), Some("out.jsonl"));
    }

    #[test]
    fn observability_flags_parse() {
        let a = CommonArgs::parse_from(vec!["--progress".into(), "--profile-folded".into(), "prof.folded".into()]).unwrap();
        assert!(a.progress);
        assert_eq!(a.profile_folded.as_deref(), Some("prof.folded"));
        assert!(CommonArgs::parse_from(vec!["--profile-folded".into()]).is_err());
    }

    #[test]
    fn censor_profile_flag_takes_a_spec() {
        let a = CommonArgs::parse_from(vec!["--censor-profile".into(), "turkmenistan".into()]).unwrap();
        assert_eq!(a.censor_profile.as_deref(), Some("turkmenistan"));
        assert!(CommonArgs::parse_from(vec!["--censor-profile".into()]).is_err());
        let a = CommonArgs::parse_from(Vec::new()).unwrap();
        assert!(a.censor_profile.is_none());
        assert!(a.censor_config().is_none(), "absent flag resolves to no override");
    }

    #[test]
    fn bad_flags_are_errors_not_panics() {
        assert!(CommonArgs::parse_from(vec!["--trials".into()]).is_err());
        assert!(CommonArgs::parse_from(vec!["--trials".into(), "many".into()]).is_err());
        assert!(CommonArgs::parse_from(vec!["--seed".into(), "0x9".into()]).is_err());
        assert!(CommonArgs::parse_from(vec!["--telemetry".into()]).is_err());
        let err = CommonArgs::parse_from(vec!["--frobnicate".into()]).unwrap_err();
        assert!(err.contains("--frobnicate"), "{err}");
    }
}
