//! The `metropolis` binary rejects bad input with exit code 2 and a named
//! error, before it runs a single flow, instead of panicking or wrapping.

use std::process::Command;

/// Run the binary with `args` and extra environment; returns the exit
/// code and stderr.
fn metropolis(args: &[&str], env: &[(&str, &str)]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_metropolis"))
        .args(args)
        .envs(env.iter().copied())
        .env_remove("INTANG_SIMCHECK")
        .output()
        .expect("spawn the metropolis binary");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

fn assert_rejected(args: &[&str], env: &[(&str, &str)], names: &str) {
    let (code, stderr) = metropolis(args, env);
    assert_eq!(code, Some(2), "{args:?} {env:?} must exit 2; stderr:\n{stderr}");
    assert!(!stderr.contains("panicked"), "{args:?} {env:?} panicked:\n{stderr}");
    assert!(stderr.contains(names), "{args:?} {env:?}: the error must name {names}:\n{stderr}");
}

#[test]
fn non_numeric_rss_ceiling_exits_2() {
    for bad in ["lots", "-5", "12.5", ""] {
        assert_rejected(&["--smoke"], &[("INTANG_METRO_RSS_MB", bad)], "INTANG_METRO_RSS_MB");
    }
}

#[test]
fn counts_above_u32_max_exit_2_instead_of_wrapping() {
    // 2^32 wrapped to 0 and 2^32 + 1000 to 1000 through the old `as u32`.
    for flag in ["--flows", "--shards", "--domains"] {
        for value in ["4294967296", "4294968296", "18446744073709551616", "-1", "many"] {
            assert_rejected(&[flag, value, "--quick"], &[], flag);
        }
    }
    assert_rejected(&["--workers", "18446744073709551616", "--quick"], &[], "--workers");
}

#[test]
fn shard_counts_past_16_bits_exit_2() {
    // A flow key names its shard in 16 bits.
    for value in ["65536", "100000"] {
        assert_rejected(&["--shards", value, "--quick"], &[], "--shards");
    }
}
