//! The §3.4 outcome taxonomy ([`TrialOutcome`], with the one outcome
//! definition of an HTTP fetch) and per-trial failure diagnosis: map an
//! unsuccessful trial onto exactly one of the paper's §5 failure vectors.
//!
//! §5 of the paper attributes residual failures to a small set of causes:
//! the GFW resetting the connection before the request is even sent
//! (insertion packets themselves detected), resets after the forbidden
//! request (evasion simply failed), the 90-second IP-pair *blacklist* left
//! over from an earlier detection (forged SYN/ACKs and resets with no new
//! detection), the evolved GFW *resyncing* its TCB and re-detecting, and
//! non-censor interference — middleboxes dropping the insertion packets or
//! the flow stalling into a timeout. The classifier below reproduces that
//! taxonomy from per-trial counters; precedence runs from most specific
//! evidence to least, so every unsuccessful trial gets exactly one vector.

use crate::metrics::{Counter, MetricsSheet};

/// The paper's outcome taxonomy (§3.4), for a trial and for a metropolis
/// flow alike: Success, Failure 1 (silent hang — no data and no resets),
/// Failure 2 (reset teardown).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrialOutcome {
    /// HTTP response received, no resets from the censor.
    Success,
    /// Failure 1: no response and no resets (the connection hung).
    Failure1,
    /// Failure 2: reset packets received (type-1 or type-2).
    Failure2,
}

impl TrialOutcome {
    /// The one outcome definition of an HTTP fetch. Resets are checked
    /// first, because that is how §3.4 defines Failure 2: a fetch that saw
    /// any reset failed, even if its response arrived. `resets_seen` is
    /// the fetch's whole reset evidence (the shim's count plus the
    /// socket's own reset).
    pub fn of_fetch(response_complete: bool, resets_seen: u64) -> TrialOutcome {
        if resets_seen > 0 {
            TrialOutcome::Failure2
        } else if response_complete {
            TrialOutcome::Success
        } else {
            TrialOutcome::Failure1
        }
    }
}

/// The §5 failure vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureVector {
    /// Resets arrived before the forbidden request was sent: the censor
    /// reacted to the handshake/insertion phase itself.
    ResetPreRequest,
    /// Resets arrived only after the request: DPI saw the keyword despite
    /// the evasion strategy.
    ResetPostRequest,
    /// Evidence of the 90 s IP-pair blacklist from a prior detection
    /// (forged SYN/ACKs, blacklist hits) rather than a fresh detection.
    BlacklistResidual,
    /// The evolved GFW resynchronized its TCB mid-flow and re-detected.
    ResyncTriggered,
    /// A non-censor middlebox dropped packets the strategy depended on.
    MiddleboxInterference,
    /// The flow stalled with no resets and no middlebox evidence.
    Timeout,
    /// Reset failure with no reset evidence in the counters — indicates an
    /// instrumentation gap, surfaced rather than mis-binned.
    Unclassified,
}

impl FailureVector {
    pub const ALL: [FailureVector; 7] = [
        FailureVector::ResetPreRequest,
        FailureVector::ResetPostRequest,
        FailureVector::BlacklistResidual,
        FailureVector::ResyncTriggered,
        FailureVector::MiddleboxInterference,
        FailureVector::Timeout,
        FailureVector::Unclassified,
    ];

    pub fn name(self) -> &'static str {
        match self {
            FailureVector::ResetPreRequest => "reset_pre_request",
            FailureVector::ResetPostRequest => "reset_post_request",
            FailureVector::BlacklistResidual => "blacklist_residual",
            FailureVector::ResyncTriggered => "resync_triggered",
            FailureVector::MiddleboxInterference => "middlebox_interference",
            FailureVector::Timeout => "timeout",
            FailureVector::Unclassified => "unclassified",
        }
    }
}

/// The counter evidence `classify` consumes, extracted from one trial's
/// [`MetricsSheet`]. Kept as a plain struct so unit tests can hand-build
/// each §5 scenario without a simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrialEvidence {
    /// Resets the shim saw before the first payload byte went out.
    pub resets_pre_request: u64,
    /// Resets the shim saw after the request was on the wire.
    pub resets_post_request: u64,
    /// Censor-side blacklist hits (flow matched an existing IP-pair entry).
    pub blacklist_hits: u64,
    /// Forged SYN/ACKs injected by the censor (blacklist behavior).
    pub forged_synacks: u64,
    /// Censor TCB resynchronizations (evolved-model behavior).
    pub tcb_resyncs: u64,
    /// Fresh DPI detections this trial.
    pub gfw_detections: u64,
    /// Packets dropped by non-censor middleboxes (filters, fragment
    /// handlers, seq/stateful firewalls).
    pub middlebox_drops: u64,
    /// Packets dropped because the destination IP was null-routed.
    pub ip_blocked_drops: u64,
    /// Packets dropped by an injected path-MTU clamp (fault layer). Treated
    /// as middlebox interference: an MTU-clamping hop is a middlebox from
    /// the flow's point of view, and the failure mode is identical.
    pub link_fault_drops: u64,
}

impl TrialEvidence {
    /// Pull the evidence counters out of a per-trial sheet.
    pub fn from_sheet(m: &MetricsSheet) -> TrialEvidence {
        TrialEvidence {
            resets_pre_request: m.counter(Counter::IntangResetsPreRequest),
            resets_post_request: m.counter(Counter::IntangResetsPostRequest),
            blacklist_hits: m.counter(Counter::GfwBlacklistHits),
            forged_synacks: m.counter(Counter::GfwForgedSynacks),
            tcb_resyncs: m.counter(Counter::GfwTcbResyncs),
            gfw_detections: m.counter(Counter::GfwDetections),
            middlebox_drops: m.counter(Counter::MiddleboxFilterDrops)
                + m.counter(Counter::MiddleboxFragDrops)
                + m.counter(Counter::MiddleboxSeqfwBlocked)
                + m.counter(Counter::MiddleboxConntrackBlocked),
            ip_blocked_drops: m.counter(Counter::GfwIpBlockedDrops),
            link_fault_drops: m.counter(Counter::NetsimMtuDropped),
        }
    }
}

/// Assign a §5 failure vector to one trial. Returns `None` for successful
/// trials; every unsuccessful trial maps to exactly one vector.
///
/// Precedence within reset failures runs most-specific-first: blacklist
/// evidence beats resync evidence beats the pre/post-request split,
/// because a blacklisted pair produces resets regardless of what the
/// strategy did this flow, and a resync re-detection explains post-request
/// resets better than "DPI saw the keyword" alone.
pub fn classify(outcome: TrialOutcome, ev: &TrialEvidence) -> Option<FailureVector> {
    match outcome {
        TrialOutcome::Success => None,
        TrialOutcome::Failure2 => Some(classify_reset(ev)),
        TrialOutcome::Failure1 => Some(classify_silent(ev)),
    }
}

fn classify_reset(ev: &TrialEvidence) -> FailureVector {
    if ev.blacklist_hits > 0 || ev.forged_synacks > 0 {
        FailureVector::BlacklistResidual
    } else if ev.tcb_resyncs > 0 && ev.gfw_detections > 0 {
        FailureVector::ResyncTriggered
    } else if ev.resets_pre_request > 0 && ev.resets_post_request == 0 {
        FailureVector::ResetPreRequest
    } else if ev.resets_post_request > 0 {
        FailureVector::ResetPostRequest
    } else {
        // The trial ended in resets but the shim recorded none in either
        // window — counter plumbing is missing a path. Surface it.
        FailureVector::Unclassified
    }
}

fn classify_silent(ev: &TrialEvidence) -> FailureVector {
    if ev.middlebox_drops + ev.ip_blocked_drops + ev.link_fault_drops > 0 {
        FailureVector::MiddleboxInterference
    } else {
        FailureVector::Timeout
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> TrialEvidence {
        TrialEvidence::default()
    }

    #[test]
    fn a_fetch_that_saw_a_reset_is_failure2_even_with_a_response() {
        assert_eq!(TrialOutcome::of_fetch(true, 0), TrialOutcome::Success);
        assert_eq!(TrialOutcome::of_fetch(false, 0), TrialOutcome::Failure1);
        // A blockpage censor answers, then resets: still censored.
        assert_eq!(TrialOutcome::of_fetch(true, 1), TrialOutcome::Failure2);
        assert_eq!(TrialOutcome::of_fetch(false, 4), TrialOutcome::Failure2);
    }

    #[test]
    fn success_has_no_vector() {
        assert_eq!(classify(TrialOutcome::Success, &base()), None);
        // Even with noisy counters, success is success.
        let noisy = TrialEvidence {
            gfw_detections: 3,
            resets_post_request: 1,
            ..base()
        };
        assert_eq!(classify(TrialOutcome::Success, &noisy), None);
    }

    #[test]
    fn reset_pre_request_vector() {
        // §5: insertion packets themselves tripped the censor during the
        // handshake — resets land before any payload.
        let ev = TrialEvidence {
            resets_pre_request: 2,
            gfw_detections: 1,
            ..base()
        };
        assert_eq!(classify(TrialOutcome::Failure2, &ev), Some(FailureVector::ResetPreRequest));
    }

    #[test]
    fn reset_post_request_vector() {
        // §5: DPI saw the forbidden keyword despite the strategy.
        let ev = TrialEvidence {
            resets_post_request: 3,
            gfw_detections: 1,
            ..base()
        };
        assert_eq!(classify(TrialOutcome::Failure2, &ev), Some(FailureVector::ResetPostRequest));
        // Resets in both windows count as post-request (the request made
        // it out; the earlier resets didn't kill the flow).
        let both = TrialEvidence {
            resets_pre_request: 1,
            ..ev
        };
        assert_eq!(classify(TrialOutcome::Failure2, &both), Some(FailureVector::ResetPostRequest));
    }

    #[test]
    fn blacklist_residual_vector() {
        // §5: the 90 s IP-pair blacklist from an earlier detection —
        // forged SYN/ACKs and resets with no fresh detection needed.
        let ev = TrialEvidence {
            blacklist_hits: 4,
            forged_synacks: 1,
            resets_post_request: 2,
            ..base()
        };
        assert_eq!(classify(TrialOutcome::Failure2, &ev), Some(FailureVector::BlacklistResidual));
        // Forged SYN/ACK alone is blacklist evidence too.
        let synack_only = TrialEvidence {
            forged_synacks: 1,
            resets_pre_request: 1,
            ..base()
        };
        assert_eq!(
            classify(TrialOutcome::Failure2, &synack_only),
            Some(FailureVector::BlacklistResidual)
        );
    }

    #[test]
    fn resync_triggered_vector() {
        // §5: evolved GFW resynced its TCB mid-flow and re-detected.
        let ev = TrialEvidence {
            tcb_resyncs: 1,
            gfw_detections: 1,
            resets_post_request: 2,
            ..base()
        };
        assert_eq!(classify(TrialOutcome::Failure2, &ev), Some(FailureVector::ResyncTriggered));
        // A resync without a detection is not the resync vector — the
        // resets must be attributable to the re-detection.
        let no_detect = TrialEvidence {
            tcb_resyncs: 1,
            resets_post_request: 2,
            ..base()
        };
        assert_eq!(classify(TrialOutcome::Failure2, &no_detect), Some(FailureVector::ResetPostRequest));
    }

    #[test]
    fn middlebox_interference_vector() {
        // §5: a non-censor middlebox ate the insertion packets; the flow
        // dies silently.
        let ev = TrialEvidence {
            middlebox_drops: 2,
            ..base()
        };
        assert_eq!(classify(TrialOutcome::Failure1, &ev), Some(FailureVector::MiddleboxInterference));
        let null_routed = TrialEvidence {
            ip_blocked_drops: 5,
            ..base()
        };
        assert_eq!(
            classify(TrialOutcome::Failure1, &null_routed),
            Some(FailureVector::MiddleboxInterference)
        );
        // An injected path-MTU clamp silently eating frames presents the
        // same way and must not fall through to `timeout`.
        let clamped = TrialEvidence {
            link_fault_drops: 3,
            ..base()
        };
        assert_eq!(
            classify(TrialOutcome::Failure1, &clamped),
            Some(FailureVector::MiddleboxInterference)
        );
    }

    #[test]
    fn timeout_vector() {
        // §5: silent hang with no drop evidence at all.
        assert_eq!(classify(TrialOutcome::Failure1, &base()), Some(FailureVector::Timeout));
    }

    #[test]
    fn unclassified_surfaces_instrumentation_gaps() {
        // A reset failure with zero reset counters means a plumbing bug;
        // it must not be silently folded into another vector.
        assert_eq!(classify(TrialOutcome::Failure2, &base()), Some(FailureVector::Unclassified));
    }

    #[test]
    fn every_unsuccessful_outcome_gets_exactly_one_vector() {
        // Sweep a grid of evidence combinations: classify is total.
        let vals = [0u64, 1];
        for a in vals {
            for b in vals {
                for c in vals {
                    for d in vals {
                        for e in vals {
                            let ev = TrialEvidence {
                                resets_pre_request: a,
                                resets_post_request: b,
                                blacklist_hits: c,
                                tcb_resyncs: d,
                                gfw_detections: e,
                                ..base()
                            };
                            assert!(classify(TrialOutcome::Failure2, &ev).is_some());
                            assert!(classify(TrialOutcome::Failure1, &ev).is_some());
                        }
                    }
                }
            }
        }
    }
}
