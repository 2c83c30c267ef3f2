//! Seeded traffic plans: the four workloads as fixed lists of operations.
//!
//! A plan is fixed work — the seed decides every operation before the
//! first byte is sent, and its size is a constant of the workload — so
//! memory, byte counts and the gateway's ledger repeat from run to run.
//! The seed moves *which* agent fetches *what* and in which order; how
//! many operations of each kind and size there are does not depend on
//! it, so `wire_bytes_per_op` and `server_rss_peak_mb` can be compared
//! across seeds. The server sees only the generated requests.

use crate::content::{fnv1a, fnv1a_extend, SplitMix};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Sessions the gateway's tracker holds before it evicts (its default
/// `max_sessions`; `botwall-serve` has no flag for it).
pub const TRACKER_CAP: usize = 100_000;

/// One measured operation of `first_contact` in this many comes from a
/// never-seen key, which at the cap evicts one session and inserts
/// another; the others come from keys the tracker holds. An eviction is
/// 40–55 µs of dependent loads over 130 MB of session state, a reference
/// fetch 9 µs of context switches, and this host slows the two at
/// different moments and by different factors: with every operation
/// evicting, ten runs' `cost_x` spread by 7–10 % of their median
/// (5.7–6.9), on a bound of 10 %; at one in eight, 0.5 % in a quiet half
/// hour and 2.25–2.55 (IQR 6–12 %) in a restless one, in which the
/// evicting operations alone took 83–107 µs instead of 62. At one in
/// sixteen the eviction is a sixth of the proxied block's time.
const STRANGER_EVERY: usize = 16;

/// How often a key the tracker holds comes back in the measured part of
/// `first_contact`: with its first request that stays below the ten
/// requests after which the detector classifies a key that has shown no
/// browser signal, and the policy starts refusing it.
const RETURNS_PER_KEY: usize = 7;

/// The traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Browser sessions and page-only crawlers: every layer works, none dominates.
    BrowseMix,
    /// Verified humans fetching 64 KB pages: rewriter and body framing dominate.
    PageStream,
    /// Rejections and probe objects for known sessions: the gate alone, tracker lookups.
    GateOnly,
    /// Harvested probe URLs replayed at the tracker's cap, one key in sixteen
    /// never seen: the gate alone, tracker evictions and inserts.
    FirstContact,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::BrowseMix,
        Workload::PageStream,
        Workload::GateOnly,
        Workload::FirstContact,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BrowseMix => "browse_mix",
            Workload::PageStream => "page_stream",
            Workload::GateOnly => "gate_only",
            Workload::FirstContact => "first_contact",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Operations per block, fixed so that one block lasts 1–5 ms.
    pub fn block_ops(self) -> usize {
        match self {
            Workload::BrowseMix => 32,
            Workload::PageStream => 8,
            Workload::GateOnly | Workload::FirstContact => 128,
        }
    }

    /// Block pairs per round, sized so that the five rounds of a run
    /// measure for about [`crate::spec::RUN_SECONDS`] on a quiet host.
    fn pairs(self) -> usize {
        match self {
            Workload::BrowseMix => 625,
            Workload::PageStream => 1000,
            Workload::GateOnly | Workload::FirstContact => 560,
        }
    }
}

/// What an operation does with the probe URLs of the page it fetched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Harvest {
    /// Nothing: the page is only fetched and checked.
    No,
    /// Remembers them for the agent's own later operations.
    Own,
    /// Adds the stateless ones (CSS probe, pixel) to the shared pool that
    /// other keys replay — the "harvested probe URL" traffic shape.
    Pool,
}

/// What one operation requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Target {
    /// An origin page (index into [`Plan::paths`]); comes back instrumented.
    Page(u16, Harvest),
    /// An origin asset; must come back byte-identical.
    Asset(u16),
    /// The agent's own CSS probe.
    Css,
    /// The agent's own generated script (read for its beacon URLs).
    Script,
    /// The agent's own transparent pixel.
    Pixel,
    /// What the generated script fetches when it runs.
    AgentBeacon,
    /// What the page's mouse handler fetches: proves the human.
    MouseBeacon,
    /// The invisible link only a crawler follows: convicts the robot.
    HiddenLink,
    /// The n-th URL (modulo its size) of the shared harvested pool.
    Pooled(u32),
    /// An origin path asked for by a session the gateway must refuse (403 or 429).
    Rejected(u16),
    /// Warm-up only: the path is requested until the gateway answers 403.
    UntilBlocked(u16),
}

impl Target {
    /// Whether the gateway answers this without the origin, so that the
    /// reference leg fetches [`crate::content::REF_PATH`] instead.
    pub fn gate_only(self) -> bool {
        !matches!(
            self,
            Target::Page(..) | Target::Asset(_) | Target::UntilBlocked(_)
        )
    }
}

/// One operation of a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Op {
    /// Which simulated client sends it (its `User-Agent` is the session key).
    pub agent: u32,
    /// What it asks for.
    pub target: Target,
    /// Whether a fresh connection is opened first, on both legs.
    pub reconnect: bool,
}

/// A workload made concrete by a seed.
#[derive(Debug)]
pub struct Plan {
    /// Which workload this is.
    pub workload: Workload,
    /// The seed it was built from.
    pub seed: u64,
    /// Origin paths the operations index into.
    pub paths: Vec<String>,
    /// Operations run once, untimed except as `setup_s`, before measuring.
    pub warmup: Vec<Op>,
    /// The measured operations: whole blocks of [`Workload::block_ops`].
    pub measured: Vec<Op>,
}

/// FNV-1a as a [`Hasher`]: unlike the standard one it is not keyed per
/// process, so a plan hash means the same thing in every run.
struct Fnv(u64);

impl Hasher for Fnv {
    fn write(&mut self, bytes: &[u8]) {
        self.0 = fnv1a_extend(self.0, bytes);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[derive(Default)]
struct Paths {
    list: Vec<String>,
    index: HashMap<String, u16>,
}

impl Paths {
    fn id(&mut self, path: String) -> u16 {
        if let Some(&i) = self.index.get(&path) {
            return i;
        }
        let i = u16::try_from(self.list.len()).expect("a plan uses few distinct paths");
        self.index.insert(path.clone(), i);
        self.list.push(path);
        i
    }
}

const SMALL_PAGES: [&str; 4] = ["8ml", "8tl", "8mc", "8tc"];
const BIG_PAGES: [&str; 4] = ["64ml", "64tc", "64tl", "64mc"];
const PAGE_IDS: u64 = 16;
const ASSET_IDS: u64 = 16;
/// The six assets of a browser session: a fixed multiset, shuffled per session.
const ASSET_KB: [u64; 6] = [2, 4, 6, 8, 12, 16];
/// Pages a crawler gets before the detector's no-browser-signals rule
/// trips (`min_requests_to_classify` + 1) and the policy starts refusing.
const CRAWLER_SERVED: usize = 11;
const CRAWLER_REFUSED: usize = 5;
/// A crawler's first page and the rest of its crawl are this many browser
/// sessions apart: the policy's rate threshold divides by whole
/// milliseconds of session age, and a crawl that fits inside one
/// millisecond would read as rate 0 and be served two more pages.
const CRAWLER_GAP: usize = 8;

impl Plan {
    /// Builds the plan for `workload`; `smoke` shrinks everything to a
    /// functional check.
    pub fn build(workload: Workload, seed: u64, smoke: bool) -> Plan {
        let mut rng = SplitMix(seed ^ fnv1a(workload.name().as_bytes()));
        let mut paths = Paths::default();
        let k = workload.block_ops();
        let pairs = if smoke { 12 } else { workload.pairs() };
        let (warmup, mut measured) = match workload {
            Workload::BrowseMix => {
                // 13.45 operations per session on average (85 % × 13 + 15 % × 16).
                let sessions = pairs * k * 100 / 1345 + 32;
                let warm = if smoke { 24 } else { 600 };
                (
                    browse(&mut rng, &mut paths, 0, warm),
                    browse(&mut rng, &mut paths, warm as u32, sessions),
                )
            }
            Workload::PageStream => {
                let humans = if smoke { 48 } else { 2048 };
                let mut warmup = Vec::new();
                for agent in 0..humans {
                    verify_human(&mut warmup, &mut rng, &mut paths, agent, agent % 64 == 0);
                }
                let mut order: Vec<u32> = (0..humans).collect();
                rng.shuffle(&mut order);
                let measured = (0..pairs * k)
                    .map(|j| Op {
                        agent: order[j % order.len()],
                        // Two of each page class per block of 8.
                        target: Target::Page(
                            paths.id(format!(
                                "/page/{}/{}.html",
                                BIG_PAGES[j % 4],
                                rng.below(PAGE_IDS)
                            )),
                            Harvest::No,
                        ),
                        reconnect: j == 0,
                    })
                    .collect();
                (warmup, measured)
            }
            Workload::GateOnly => {
                let each = if smoke { 32 } else { 1024 };
                let ref_asset = paths.id("/asset/2/0.bin".to_string());
                let mut warmup = Vec::new();
                for agent in 0..each {
                    verify_human(&mut warmup, &mut rng, &mut paths, agent, agent % 64 == 0);
                }
                for agent in each..2 * each {
                    let page = small_page(&mut rng, &mut paths);
                    for target in [
                        Target::Page(page, Harvest::Own),
                        Target::HiddenLink,
                        Target::UntilBlocked(ref_asset),
                    ] {
                        warmup.push(Op {
                            agent,
                            target,
                            reconnect: false,
                        });
                    }
                }
                let mut humans: Vec<u32> = (0..each).collect();
                let mut robots: Vec<u32> = (each..2 * each).collect();
                rng.shuffle(&mut humans);
                rng.shuffle(&mut robots);
                let refused = small_page(&mut rng, &mut paths);
                let measured = (0..pairs * k)
                    .map(|j| {
                        let turn = j / 2;
                        let (agent, target) = if j % 2 == 0 {
                            (robots[turn % robots.len()], Target::Rejected(refused))
                        } else {
                            let probe = [Target::Css, Target::Pixel, Target::Script][turn % 3];
                            (humans[turn % humans.len()], probe)
                        };
                        Op {
                            agent,
                            target,
                            reconnect: j == 0,
                        }
                    })
                    .collect();
                (warmup, measured)
            }
            Workload::FirstContact => {
                let harvesters = 64u32;
                // The smoke plan stays below the cap: filling it takes seconds.
                let fill = if smoke { 1500 } else { TRACKER_CAP };
                let mut warmup = Vec::new();
                for agent in 0..harvesters {
                    warmup.push(Op {
                        agent,
                        target: Target::Page(small_page(&mut rng, &mut paths), Harvest::Pool),
                        reconnect: agent == 0,
                    });
                }
                // Operation `n`, by `agent`, on a fresh connection every
                // 64, replays some harvester's CSS probe (even slots of
                // the pool) or pixel (odd slots): which harvester is
                // drawn, which of the two alternates, so bytes per
                // operation do not depend on the seed.
                let mut replay = |n: usize, agent: usize| Op {
                    agent: agent as u32,
                    target: Target::Pooled(
                        2 * rng.below(u64::from(harvesters)) as u32 + (n % 2) as u32,
                    ),
                    reconnect: n.is_multiple_of(64),
                };
                // Never-seen keys until the tracker is full.
                warmup.extend((harvesters as usize..fill).map(|n| replay(n, n)));
                // The keys that come back are the ones created last: seen
                // more recently than the rest, they are never the most
                // idle of an eviction's sample.
                let strangers = (pairs * k).div_ceil(STRANGER_EVERY);
                let returning = (pairs * k - strangers).div_ceil(RETURNS_PER_KEY);
                let measured = (0..pairs * k)
                    .map(|n| {
                        let new = n.div_ceil(STRANGER_EVERY);
                        if n % STRANGER_EVERY == 0 {
                            replay(n, fill + new)
                        } else {
                            replay(n, fill - 1 - (n - new) % returning)
                        }
                    })
                    .collect();
                (warmup, measured)
            }
        };
        measured.truncate(measured.len() / k * k);
        Plan {
            workload,
            seed,
            paths: paths.list,
            warmup,
            measured,
        }
    }

    /// A digest of everything the plan will do: same seed, same hash;
    /// used to show that two runs sent the same traffic.
    pub fn hash(&self) -> u64 {
        let mut h = Fnv(fnv1a(self.workload.name().as_bytes()));
        (
            self.workload.block_ops(),
            &self.paths,
            &self.warmup,
            &self.measured,
        )
            .hash(&mut h);
        h.0
    }

    /// How many sessions the tracker holds once the measured part is
    /// done: one per distinct agent (none is ever lost), up to its cap.
    pub fn sessions(&self) -> usize {
        distinct_agents(self.warmup.iter().chain(&self.measured)).min(TRACKER_CAP)
    }

    /// The same once the warm-up is done.
    pub fn warmed_sessions(&self) -> usize {
        distinct_agents(self.warmup.iter()).min(TRACKER_CAP)
    }

    /// The `User-Agent` of `agent`: the session key on loopback, where
    /// every client shares one address. Lower-cased and stripped of
    /// blanks it is what the generated script reports back.
    pub fn user_agent(&self, agent: u32) -> String {
        format!("Mozilla/5.0 bw-bench/{:x}.{agent}", self.seed)
    }
}

fn distinct_agents<'a>(ops: impl Iterator<Item = &'a Op>) -> usize {
    let mut agents: Vec<u32> = ops.map(|op| op.agent).collect();
    agents.sort_unstable();
    agents.dedup();
    agents.len()
}

fn small_page(rng: &mut SplitMix, paths: &mut Paths) -> u16 {
    let class = SMALL_PAGES[rng.below(4) as usize];
    paths.id(format!("/page/{class}/{}.html", rng.below(PAGE_IDS)))
}

/// Page, script, mouse beacon: the shortest way to a `Human` verdict.
fn verify_human(
    out: &mut Vec<Op>,
    rng: &mut SplitMix,
    paths: &mut Paths,
    agent: u32,
    reconnect: bool,
) {
    let page = small_page(rng, paths);
    for (i, target) in [
        Target::Page(page, Harvest::Own),
        Target::Script,
        Target::MouseBeacon,
    ]
    .into_iter()
    .enumerate()
    {
        out.push(Op {
            agent,
            target,
            reconnect: reconnect && i == 0,
        });
    }
}

/// `sessions` visits of the browse mix, agents numbered from `first`:
/// exactly 15 % crawlers, the rest browsers, in seeded order, each visit
/// on its own connection.
fn browse(rng: &mut SplitMix, paths: &mut Paths, first: u32, sessions: usize) -> Vec<Op> {
    // Crawlers never start in the last stretch, so each has room to return.
    let open = sessions.saturating_sub(2 * CRAWLER_GAP);
    let mut crawler: Vec<bool> = (0..open).map(|i| i * 15 % 100 < 15).collect();
    rng.shuffle(&mut crawler);
    crawler.resize(sessions, false);

    let mut ops = Vec::new();
    let mut returning: Vec<(usize, u32)> = Vec::new();
    let mut browsers = 0;
    for (i, &is_crawler) in crawler.iter().enumerate() {
        let agent = first + i as u32;
        let visit = |ops: &mut Vec<Op>, agent: u32, targets: &[Target]| {
            for (j, &target) in targets.iter().enumerate() {
                ops.push(Op {
                    agent,
                    target,
                    reconnect: j == 0,
                });
            }
        };
        if is_crawler {
            visit(
                &mut ops,
                agent,
                &[Target::Page(small_page(rng, paths), Harvest::No)],
            );
            returning.push((browsers + CRAWLER_GAP, agent));
        } else {
            let mut kb = ASSET_KB;
            rng.shuffle(&mut kb);
            let mut targets = vec![
                Target::Page(small_page(rng, paths), Harvest::Own),
                Target::Css,
                Target::Script,
                Target::Pixel,
                Target::AgentBeacon,
                Target::MouseBeacon,
            ];
            targets.extend(kb.iter().map(|kb| {
                Target::Asset(paths.id(format!("/asset/{kb}/{}.bin", rng.below(ASSET_IDS))))
            }));
            targets.push(Target::Page(small_page(rng, paths), Harvest::No));
            visit(&mut ops, agent, &targets);
            browsers += 1;
        }
        while returning.first().is_some_and(|&(due, _)| due <= browsers) {
            let (_, agent) = returning.remove(0);
            let mut targets = Vec::new();
            for _ in 1..CRAWLER_SERVED {
                targets.push(Target::Page(small_page(rng, paths), Harvest::No));
            }
            for _ in 0..CRAWLER_REFUSED {
                targets.push(Target::Rejected(small_page(rng, paths)));
            }
            visit(&mut ops, agent, &targets);
        }
    }
    assert!(returning.is_empty(), "every crawler came back");
    ops
}
