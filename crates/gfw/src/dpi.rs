//! Deep packet inspection: a streaming Aho–Corasick keyword engine plus the
//! paper's rule categories (HTTP keywords, DNS domains, Tor and OpenVPN
//! handshake fingerprints).
//!
//! The matcher is *streaming*: its state survives across segment
//! boundaries, so a sensitive keyword split in half across two TCP packets
//! is still detected once both halves are reassembled in order — the probe
//! the paper uses in §4 to refute the "stateless mode" hypothesis (2).

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// What a matched rule means. The variant order is the order rules of
/// each kind take in a [`RuleSet`] built with [`RuleSet::replacing`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DetectionKind {
    /// Sensitive HTTP keyword (the paper uses `ultrasurf`).
    HttpKeyword,
    /// Blacklisted domain name (DNS request censoring, UDP or TCP).
    Domain,
    /// Tor protocol fingerprint (leads to active probing, §7.3).
    TorHandshake,
    /// OpenVPN-over-TCP fingerprint (§7.3 VPN experiment).
    VpnHandshake,
}

/// One DPI rule: a byte pattern and its category.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rule {
    pub pattern: Vec<u8>,
    pub kind: DetectionKind,
}

/// The censor's rule database.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleSet {
    pub rules: Vec<Rule>,
}

impl RuleSet {
    pub fn empty() -> RuleSet {
        RuleSet { rules: Vec::new() }
    }

    pub fn with_keyword(mut self, kw: &str) -> RuleSet {
        self.rules.push(Rule {
            pattern: kw.as_bytes().to_vec(),
            kind: DetectionKind::HttpKeyword,
        });
        self
    }

    pub fn with_domain(mut self, d: &str) -> RuleSet {
        self.rules.push(Rule {
            pattern: d.as_bytes().to_vec(),
            kind: DetectionKind::Domain,
        });
        self
    }

    /// This set with every rule of `kind` replaced by `patterns`, the
    /// rules ordered by kind ([`DetectionKind`]'s variant order) and
    /// otherwise kept in place.
    pub fn replacing(&self, kind: DetectionKind, patterns: impl IntoIterator<Item = Vec<u8>>) -> RuleSet {
        let mut rules: Vec<Rule> = self.rules.iter().filter(|r| r.kind != kind).cloned().collect();
        rules.extend(patterns.into_iter().map(|pattern| Rule { pattern, kind }));
        rules.sort_by_key(|r| r.kind);
        RuleSet { rules }
    }
}

/// The two patterns a censored domain compiles to: the dotted text (HTTP
/// Host headers, plain-text protocols) and the DNS wire encoding with
/// length-prefixed labels (queries inside UDP/TCP DNS messages). Give the
/// registrable part only, so `www.dropbox.com` also matches.
pub(crate) fn domain_patterns(domain: &str) -> [Vec<u8>; 2] {
    [domain.as_bytes().to_vec(), dns_label_encoding(domain)]
}

/// DNS wire encoding of a domain: length-prefixed labels, no terminator
/// (so it matches as an inner substring of longer names too).
pub fn dns_label_encoding(domain: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(domain.len() + 2);
    for label in domain.split('.').filter(|l| !l.is_empty()) {
        out.push(label.len() as u8);
        out.extend_from_slice(label.as_bytes());
    }
    out
}

/// Bytes our simulated Tor client leads with (a stand-in for the TLS
/// client-hello fingerprint the real GFW matches).
pub const TOR_FINGERPRINT: &[u8] = b"\x16\x03\x01TOR-CLIENT-HELLO";
/// Stand-in for the OpenVPN-over-TCP session negotiation fingerprint.
pub const VPN_FINGERPRINT: &[u8] = b"\x00\x0e\x38OPENVPN-HARD-RESET";

/// A node of the Aho–Corasick trie, used only during construction; the
/// compiled [`Automaton`] stores a dense goto-complete transition table.
#[derive(Debug, Clone, Default)]
struct Node {
    children: BTreeMap<u8, u32>,
    fail: u32,
    /// Rule indices that end at this node (including via fail links).
    outputs: Vec<u32>,
}

/// A compiled multi-pattern matcher.
///
/// ```
/// use intang_gfw::dpi::{Automaton, DetectionKind, StreamMatcher};
///
/// let aut = Automaton::build(&intang_gfw::dpi::shared_paper_rules());
/// assert_eq!(aut.scan(b"GET /ultrasurf HTTP/1.1"), vec![DetectionKind::HttpKeyword]);
///
/// // Streaming: the keyword split across two segments still matches.
/// let mut m = StreamMatcher::new();
/// assert!(m.feed(&aut, b"GET /ultra").is_empty());
/// assert_eq!(m.feed(&aut, b"surf"), vec![DetectionKind::HttpKeyword]);
/// ```
#[derive(Debug, Clone)]
pub struct Automaton {
    /// Dense goto-complete transition table: `trans[state * 256 + byte]` is
    /// the next state, with fail links pre-resolved at build time so a
    /// [`StreamMatcher::feed`] step is a single array index per byte.
    trans: Vec<u32>,
    /// Per-node `(start, len)` slice into `outputs` (rule indices ending at
    /// this node, including via fail links).
    out_ranges: Vec<(u32, u32)>,
    /// Flattened per-node output lists.
    outputs: Vec<u32>,
    kinds: Vec<DetectionKind>,
}

impl Automaton {
    pub fn build(rules: &RuleSet) -> Automaton {
        let mut nodes = vec![Node::default()];
        let mut kinds = Vec::with_capacity(rules.rules.len());
        // Trie phase.
        for (idx, rule) in rules.rules.iter().enumerate() {
            kinds.push(rule.kind);
            let mut cur = 0u32;
            for &b in &rule.pattern {
                let next = match nodes[cur as usize].children.get(&b) {
                    Some(&n) => n,
                    None => {
                        nodes.push(Node::default());
                        let n = (nodes.len() - 1) as u32;
                        nodes[cur as usize].children.insert(b, n);
                        n
                    }
                };
                cur = next;
            }
            nodes[cur as usize].outputs.push(idx as u32);
        }
        // BFS fail links, recording visit order for the table compile below.
        let mut queue: std::collections::VecDeque<u32> = std::collections::VecDeque::new();
        let mut bfs_order: Vec<u32> = Vec::with_capacity(nodes.len());
        let root_children: Vec<(u8, u32)> = nodes[0].children.iter().map(|(k, v)| (*k, *v)).collect();
        for (_, child) in root_children {
            nodes[child as usize].fail = 0;
            queue.push_back(child);
        }
        while let Some(u) = queue.pop_front() {
            bfs_order.push(u);
            let children: Vec<(u8, u32)> = nodes[u as usize].children.iter().map(|(k, v)| (*k, *v)).collect();
            for (b, v) in children {
                // Find the fail target for v.
                let mut f = nodes[u as usize].fail;
                loop {
                    if let Some(&n) = nodes[f as usize].children.get(&b) {
                        if n != v {
                            nodes[v as usize].fail = n;
                            break;
                        }
                    }
                    if f == 0 {
                        nodes[v as usize].fail = if let Some(&n) = nodes[0].children.get(&b) {
                            if n != v {
                                n
                            } else {
                                0
                            }
                        } else {
                            0
                        };
                        break;
                    }
                    f = nodes[f as usize].fail;
                }
                let fail_outputs = nodes[nodes[v as usize].fail as usize].outputs.clone();
                nodes[v as usize].outputs.extend(fail_outputs);
                queue.push_back(v);
            }
        }
        // Table compile: goto-complete transitions. The root row maps every
        // byte to its child (or back to root); each deeper node, visited in
        // BFS order, copies its fail node's already-complete row and then
        // overlays its own children.
        let mut trans = vec![0u32; nodes.len() * 256];
        for (&b, &c) in &nodes[0].children {
            trans[b as usize] = c;
        }
        for &u in &bfs_order {
            // The fail node sits at a smaller BFS depth, so its row is
            // already complete (though its *index* may be larger — nodes are
            // numbered in trie-insertion order).
            let f = nodes[u as usize].fail as usize;
            trans.copy_within(f * 256..f * 256 + 256, u as usize * 256);
            for (&b, &c) in &nodes[u as usize].children {
                trans[u as usize * 256 + b as usize] = c;
            }
        }
        let mut out_ranges = Vec::with_capacity(nodes.len());
        let mut outputs = Vec::new();
        for n in &nodes {
            out_ranges.push((outputs.len() as u32, n.outputs.len() as u32));
            outputs.extend_from_slice(&n.outputs);
        }
        Automaton {
            trans,
            out_ranges,
            outputs,
            kinds,
        }
    }

    #[inline]
    fn step(&self, state: u32, b: u8) -> u32 {
        self.trans[state as usize * 256 + b as usize]
    }

    /// Rule indices matched at `state` (fail-link suffixes included).
    #[inline]
    fn outputs_at(&self, state: u32) -> &[u32] {
        let (start, len) = self.out_ranges[state as usize];
        &self.outputs[start as usize..start as usize + len as usize]
    }

    /// Scan a whole buffer statelessly; returns the kinds matched.
    pub fn scan(&self, data: &[u8]) -> Vec<DetectionKind> {
        let mut m = StreamMatcher::new();
        m.feed(self, data)
    }

    pub fn node_count(&self) -> usize {
        self.out_ranges.len()
    }
}

/// The compiled automaton for [`shared_paper_rules`], built once per
/// process and shared. Every sweep cell runs the same censor rule database,
/// so rebuilding (and re-flattening the dense table) per `GfwElement` was
/// pure waste — measurable at thousands of trials per sweep.
pub fn shared_paper_default() -> Arc<Automaton> {
    static PAPER_DEFAULT: OnceLock<Arc<Automaton>> = OnceLock::new();
    PAPER_DEFAULT
        .get_or_init(|| Arc::new(Automaton::build(&shared_paper_rules())))
        .clone()
}

/// The paper's measurement workload — keyword `ultrasurf`, a censored
/// domain list, plus Tor/VPN fingerprints: the rules of
/// [`CensorProfile::gfw_evolved`](crate::CensorProfile::gfw_evolved), built
/// once and shared. Configs reference rule sets through an `Arc` so the
/// thousands of `GfwConfig` values a sweep constructs don't each own a heap
/// copy of the rule database, and `Arc::ptr_eq` against this static is the
/// fast path for "is this the paper-default censor?".
pub fn shared_paper_rules() -> Arc<RuleSet> {
    static PAPER_RULES: OnceLock<Arc<RuleSet>> = OnceLock::new();
    PAPER_RULES
        .get_or_init(|| {
            let domains = ["dropbox.com", "facebook.com", "twitter.com", "youtube.com"];
            let rules = RuleSet::empty()
                .replacing(DetectionKind::HttpKeyword, [b"ultrasurf".to_vec()])
                .replacing(DetectionKind::Domain, domains.into_iter().flat_map(domain_patterns))
                .replacing(DetectionKind::TorHandshake, [TOR_FINGERPRINT.to_vec()])
                .replacing(DetectionKind::VpnHandshake, [VPN_FINGERPRINT.to_vec()]);
            Arc::new(rules)
        })
        .clone()
}

/// Streaming matcher state: one `u32` per monitored flow.
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamMatcher {
    state: u32,
}

impl StreamMatcher {
    pub fn new() -> StreamMatcher {
        StreamMatcher { state: 0 }
    }

    /// Feed in-order bytes; returns newly matched detection kinds, each
    /// once per call, in the order they first match.
    ///
    /// One table step per byte, then the outputs of the state it reaches.
    /// The state carries over to the next call, so a keyword split across
    /// segments matches on the segment that completes it.
    pub fn feed(&mut self, aut: &Automaton, data: &[u8]) -> Vec<DetectionKind> {
        let mut hits = Vec::new();
        for &b in data {
            self.state = aut.step(self.state, b);
            for &o in aut.outputs_at(self.state) {
                let kind = aut.kinds[o as usize];
                if !hits.contains(&kind) {
                    hits.push(kind);
                }
            }
        }
        hits
    }

    /// Forget everything (used when the censor resynchronizes its TCB).
    pub fn reset(&mut self) {
        self.state = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aut() -> Automaton {
        Automaton::build(&shared_paper_rules())
    }

    #[test]
    fn detects_keyword_in_http_request() {
        let req = b"GET /search?q=ultrasurf HTTP/1.1\r\nHost: example.com\r\n\r\n";
        assert_eq!(aut().scan(req), vec![DetectionKind::HttpKeyword]);
    }

    #[test]
    fn clean_request_matches_nothing() {
        let req = b"GET /index.html HTTP/1.1\r\nHost: example.com\r\n\r\n";
        assert!(aut().scan(req).is_empty());
    }

    #[test]
    fn detects_keyword_split_across_feeds() {
        // The §4 stateless-mode refutation: halves are innocuous alone.
        let a = aut();
        let mut m = StreamMatcher::new();
        assert!(m.feed(&a, b"GET /ultra").is_empty());
        assert_eq!(m.feed(&a, b"surf HTTP/1.1\r\n"), vec![DetectionKind::HttpKeyword]);
    }

    #[test]
    fn reset_clears_partial_match() {
        let a = aut();
        let mut m = StreamMatcher::new();
        assert!(m.feed(&a, b"ultra").is_empty());
        m.reset();
        assert!(m.feed(&a, b"surf").is_empty(), "no match after resync reset");
    }

    #[test]
    fn detects_domain_inside_dns_wire_format() {
        let msg = intang_packet::dns::DnsMessage::query(7, "www.dropbox.com");
        assert_eq!(aut().scan(&msg.encode()), vec![DetectionKind::Domain]);
        let clean = intang_packet::dns::DnsMessage::query(8, "www.example.org");
        assert!(aut().scan(&clean.encode()).is_empty());
    }

    #[test]
    fn detects_tor_and_vpn_fingerprints() {
        assert_eq!(aut().scan(TOR_FINGERPRINT), vec![DetectionKind::TorHandshake]);
        assert_eq!(aut().scan(VPN_FINGERPRINT), vec![DetectionKind::VpnHandshake]);
    }

    #[test]
    fn overlapping_patterns_all_reported() {
        let rules = RuleSet::empty().with_keyword("abcd").with_keyword("bc").with_keyword("cd");
        let a = Automaton::build(&rules);
        let hits = a.scan(b"xabcdy");
        assert_eq!(hits.len(), 1, "all three rules are HttpKeyword; kinds dedup");
        // Count raw rule hits via distinct kinds instead:
        let rules2 = RuleSet {
            rules: vec![
                Rule {
                    pattern: b"abcd".to_vec(),
                    kind: DetectionKind::HttpKeyword,
                },
                Rule {
                    pattern: b"bc".to_vec(),
                    kind: DetectionKind::Domain,
                },
                Rule {
                    pattern: b"cd".to_vec(),
                    kind: DetectionKind::TorHandshake,
                },
            ],
        };
        let a2 = Automaton::build(&rules2);
        let hits2 = a2.scan(b"xabcdy");
        assert_eq!(hits2.len(), 3, "suffix matches via fail links all fire");
    }

    #[test]
    fn repeated_prefix_patterns() {
        let rules = RuleSet::empty().with_keyword("aaa");
        let a = Automaton::build(&rules);
        assert_eq!(a.scan(b"aaaa"), vec![DetectionKind::HttpKeyword]);
        assert!(a.scan(b"aa").is_empty());
    }

    #[test]
    fn empty_ruleset_never_matches() {
        let a = Automaton::build(&RuleSet::empty());
        assert!(a.scan(b"ultrasurf dropbox.com").is_empty());
        assert_eq!(a.node_count(), 1);
    }

    #[test]
    fn empty_pattern_root_outputs_fire_on_every_byte() {
        // An empty pattern puts outputs on the root: every byte that leaves
        // the matcher at the root reports it.
        let rules = RuleSet {
            rules: vec![
                Rule {
                    pattern: Vec::new(),
                    kind: DetectionKind::Domain,
                },
                Rule {
                    pattern: b"tor".to_vec(),
                    kind: DetectionKind::TorHandshake,
                },
            ],
        };
        let a = Automaton::build(&rules);
        let mut m = StreamMatcher::new();
        let data = b"xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx tor";
        assert_eq!(m.feed(&a, data), vec![DetectionKind::Domain, DetectionKind::TorHandshake]);
        assert_eq!(m.feed(&a, b"zz"), vec![DetectionKind::Domain], "root outputs fire on every byte");
    }
}
