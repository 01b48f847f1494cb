//! Per-thread run switches: every mode a simulation caches at construction,
//! held in one value.
//!
//! The four `INTANG_*` variables are read once, into one process-wide
//! default ([`env()`]; each must be unset, `0` or `1`). A thread may
//! [`install`] its own [`RunKnobs`] over it; [`current`] is what every
//! module's `enabled()` reads. Thread-locals do not follow work onto
//! spawned threads, so the experiments executor captures [`current`] on
//! the calling thread and installs it in every worker — a caller-side
//! override governs worker-built simulations too.

use std::cell::Cell;
use std::sync::OnceLock;

/// Every per-thread switch. None of them may change experiment output:
/// each is an observer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunKnobs {
    /// Per-simulation flight recorder (`INTANG_FLIGHT`).
    pub flight: bool,
    /// Gauge time-series sampling (`INTANG_SERIES`).
    pub series: bool,
    /// Span profiler (`INTANG_SPANS`).
    pub spans: bool,
    /// Runtime invariant checks (`INTANG_SIMCHECK`).
    pub simcheck: bool,
}

/// One switch variable: unset or `0` is off and `1` is on. Any other
/// value is an error naming the variable. Every `INTANG_*` on/off variable
/// goes through here, `INTANG_BLESS` included.
pub fn flag(name: &str) -> Result<bool, String> {
    match std::env::var_os(name) {
        None => Ok(false),
        Some(v) if v == "0" => Ok(false),
        Some(v) if v == "1" => Ok(true),
        Some(v) => Err(format!("{name} must be unset, 0 or 1, got {v:?}")),
    }
}

/// The process-wide defaults, read from the environment once: each switch
/// is off unless its variable is `1`. A value other than unset, `0` or `1`
/// is an error: it is printed, naming the variable, and the process exits
/// with status 2. Binaries call this at startup, so a bad value stops them
/// before any run starts.
pub fn env() -> RunKnobs {
    static ENV: OnceLock<RunKnobs> = OnceLock::new();
    *ENV.get_or_init(|| {
        let read = || -> Result<RunKnobs, String> {
            Ok(RunKnobs {
                flight: flag("INTANG_FLIGHT")?,
                series: flag("INTANG_SERIES")?,
                spans: flag("INTANG_SPANS")?,
                simcheck: flag("INTANG_SIMCHECK")?,
            })
        };
        read().unwrap_or_else(|msg| {
            eprintln!("error: {msg}");
            std::process::exit(2);
        })
    })
}

thread_local! {
    static INSTALLED: Cell<Option<RunKnobs>> = const { Cell::new(None) };
}

/// This thread's knobs: the installed value, else the environment's.
/// Read at every span site, so it stays one thread-local load.
#[inline]
pub fn current() -> RunKnobs {
    INSTALLED.with(Cell::get).unwrap_or_else(env)
}

/// Install `knobs` on this thread; returns the knobs it replaces. Must
/// happen *before* constructing the simulations it should affect — they
/// cache the flags.
pub fn install(knobs: RunKnobs) -> RunKnobs {
    INSTALLED.with(|c| c.replace(Some(knobs))).unwrap_or_else(env)
}

/// One-field override behind each module's `set_thread`: `Some(on)` sets
/// the field on this thread, `None` resets it to the environment's value.
/// Returns the field's previous override (`None` while nothing is
/// installed on this thread), so `set_thread(prev)` restores it.
pub fn set_field(on: Option<bool>, field: fn(&mut RunKnobs) -> &mut bool) -> Option<bool> {
    let prev = INSTALLED.with(Cell::get);
    let mut knobs = prev.unwrap_or_else(env);
    *field(&mut knobs) = on.unwrap_or_else(|| *field(&mut env()));
    INSTALLED.with(|c| c.set(Some(knobs)));
    prev.map(|mut p| *field(&mut p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_replaces_and_returns_the_previous_knobs() {
        let base = current();
        let flipped = RunKnobs {
            spans: !base.spans,
            ..base
        };
        assert_eq!(install(flipped), base);
        assert_eq!(current(), flipped);
        assert_eq!(install(base), flipped);
        assert_eq!(current(), base);
    }

    #[test]
    fn set_field_touches_one_field_and_round_trips() {
        let base = current();
        let prev = set_field(Some(!base.series), |k| &mut k.series);
        assert_eq!(prev, None, "nothing installed on a fresh test thread");
        assert_eq!(
            current(),
            RunKnobs {
                series: !base.series,
                ..base
            }
        );
        assert_eq!(set_field(prev, |k| &mut k.series), Some(!base.series));
        assert_eq!(current(), base);
    }

    #[test]
    fn other_threads_start_from_the_environment() {
        install(RunKnobs {
            simcheck: !env().simcheck,
            ..env()
        });
        assert_eq!(std::thread::spawn(current).join().unwrap(), env());
    }
}
