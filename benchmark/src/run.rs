//! One benchmark run: rounds against fresh server processes, the
//! correctness gate, and the metrics of `BENCHMARK.json`.

use crate::bed::{OriginProc, ServerProc};
use crate::client::Socket;
use crate::drive::{Driver, Pair, Samples, Tally};
use crate::plan::{Plan, Workload};
use crate::stats::{iqr_share, json_field, median, quantile, sorted, Metric};
use crate::sys::{self, HostSample, ProcSample};
use crate::{layers, replay};
use std::collections::HashMap;
use std::io;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Rounds per run: each gets a fresh server, so address-space layout
/// and hash-seed luck average out inside one run.
const ROUNDS: usize = 5;
/// A round is run again when the standard error of its median pair
/// ratio exceeds this share of the median. Not the issue's bound on the
/// spread itself (IQR/median > 0.15): blocks of `browse_mix` and
/// `page_stream` differ in content (IQR/median 0.19 and 0.16 on a quiet
/// host), so their ratios spread for a reason a rerun cannot remove.
/// More pairs pay for that: over 200 rounds, quiet and disturbed, the
/// error read 0.3 % (`gate_only`) to 0.7 % (`browse_mix`) and never above
/// 1.2 %, and something that hits one leg of many pairs (IQR/median of
/// 0.35 and more) does not get through at any pair count used here. The
/// round has only its own pairs to go by, so this looks at all of them;
/// which of them ran in the host's fast state ([`fast_pairs`]) is known
/// when the run ends.
const MAX_MEDIAN_ERROR: f64 = 0.015;
/// How many disturbed rounds one run replaces.
const MAX_RERUNS: usize = 2;
/// The seed every server process gets: the workload seed shapes the
/// traffic, never the program.
pub const SERVER_SEED: u64 = 20_060_106;

/// What to run.
#[derive(Debug, Clone)]
pub struct Config {
    /// The traffic mix.
    pub workload: Workload,
    /// Seeds the plan.
    pub seed: u64,
    /// Report per-layer metrics from one traced round instead of the
    /// end-to-end ones.
    pub trace: bool,
    /// A functional check: one tiny round.
    pub smoke: bool,
    /// The `botwall-serve` binary.
    pub server_bin: PathBuf,
    /// This binary (its `origin` subcommand is the origin).
    pub exe: PathBuf,
}

/// What a run found.
#[derive(Debug)]
pub struct Outcome {
    /// Whether every output was right and every ledger balanced.
    pub correct: bool,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed.
    pub failed: u64,
    /// The metrics `BENCHMARK.json` names for this kind of run.
    pub metrics: Vec<Metric>,
    /// Further numbers worth a line in the human-readable report.
    pub notes: Vec<Metric>,
    /// What went wrong, in words.
    pub problems: Vec<String>,
    /// Digest of the traffic sent.
    pub plan_hash: u64,
}

/// The unit of `setup_s`: seconds on a host where a direct fetch of
/// `/ref.gif` takes this long (the floor measured on the host this was
/// written on: 8.5–9.0 µs). Comparisons do not depend on it; see
/// [`SetUp::quiet_s`].
const QUIET_PROBE_NS: f64 = 9_000.0;

/// How long one set-up took: spawn → first good response → warm-up done.
#[derive(Debug, Clone, Copy)]
struct SetUp {
    /// On the wall clock (less the probing).
    wall_s: f64,
    /// Scaled to a quiet host: divided by how much slower than
    /// [`QUIET_PROBE_NS`] the probe fetches ran *during this set-up*.
    /// The one absolute time the contract asks for cannot be scored
    /// against a reference leg, and this host's speed moves by 1.6× for
    /// minutes at a time: the fastest wall-clock set-up of five rounds
    /// (the statistic the issue planned) read 0.43 s as the median of ten
    /// runs of `browse_mix` and 0.70 s over eight runs in a restless hour,
    /// against a bound of 25 %; scaled, the same runs read 0.39 and 0.42 s.
    /// A set-up is socket round trips through the server; the probe is
    /// the same round trip without it.
    quiet_s: f64,
}

/// One round against one server process.
#[derive(Debug)]
struct Round {
    set_up: SetUp,
    samples: Samples,
    /// The server over the measured part.
    proc_before: ProcSample,
    proc_after: ProcSample,
    /// `/admin/stats` around the measured part.
    admin_before: String,
    admin_after: String,
    /// The origin's `/__stats` around the measured part.
    origin_before: String,
    origin_after: String,
}

fn ratios(pairs: &[Pair], pick: impl Fn(&Pair) -> (u64, u64)) -> Vec<f64> {
    pairs
        .iter()
        .map(|p| {
            let (proxied, reference) = pick(p);
            proxied as f64 / reference as f64
        })
        .collect()
}

/// A pair counts towards `cost_x` and `ttfb_x` if the reference blocks
/// on either side of it ran within this factor of the run's floor for
/// the same fetches.
const FAST_PAIR_SLOWDOWN: f64 = 1.15;
/// If fewer than this share of a run's pairs are that fast (the floor
/// was a rare moment), the fastest such share counts instead.
const MIN_FAST_SHARE: f64 = 0.1;

/// For each round, which of its pairs ran while the host was in its
/// fast state.
///
/// Noise on a shared host is one-sided: a neighbour that contends for
/// the cache slows context switches (the whole of a reference fetch) by
/// up to 1.6× and memory-bound work (most of a page rewrite, all of an
/// eviction) by about 1.2×, and never speeds anything up. A ratio of the
/// two therefore moves while the neighbour is busy — up by a twentieth on
/// `browse_mix` — and a run's median over all pairs depends on how much
/// of the run the neighbour was awake for: eight runs of `browse_mix` in
/// one restless hour read 3.99–4.46 that way (IQR 9.6 % of the median, on
/// a bound of 10 %) and 4.02–4.23 (1.4 %) scored this way; on a quiet
/// host the two agree. The reference leg fetches the same few things
/// over and over, so a reference block's time against the floor for its
/// content says which state the host was in. A pair is judged by the
/// reference blocks of its two *neighbours*, 2–10 ms to either side, not
/// by its own: picking pairs by their own denominator would pick the
/// ratios that happen to read high.
fn fast_pairs(rounds: &[&Samples], k: usize) -> Vec<Vec<bool>> {
    let mut by_class: HashMap<u32, Vec<f64>> = HashMap::new();
    for s in rounds {
        for &(class, ns) in &s.reference_ops {
            by_class.entry(class).or_default().push(ns as f64);
        }
    }
    let floor: HashMap<u32, f64> = by_class
        .into_iter()
        .map(|(class, ns)| (class, quantile(&sorted(ns), 0.1)))
        .collect();
    let around: Vec<Vec<f64>> = rounds
        .iter()
        .map(|s| {
            let own: Vec<f64> = s
                .reference_ops
                .chunks_exact(k)
                .map(|block| {
                    let took: u64 = block.iter().map(|op| op.1).sum();
                    let at_floor: f64 = block.iter().map(|op| floor[&op.0]).sum();
                    took as f64 / at_floor
                })
                .collect();
            (0..own.len())
                .map(|i| {
                    let before = i.checked_sub(1).map(|j| own[j]);
                    let after = own.get(i + 1).copied();
                    match (before, after) {
                        (Some(b), Some(a)) => (b + a) / 2.0,
                        (Some(x), None) | (None, Some(x)) => x,
                        (None, None) => own[i],
                    }
                })
                .collect()
        })
        .collect();
    let all = sorted(around.iter().flatten().copied().collect());
    let limit = FAST_PAIR_SLOWDOWN.max(quantile(&all, MIN_FAST_SHARE));
    around
        .iter()
        .map(|round| round.iter().map(|&s| s <= limit).collect())
        .collect()
}

fn cost_ratios(pairs: &[Pair]) -> Vec<f64> {
    ratios(pairs, |p| (p.proxied_ns, p.reference_ns))
}

/// The standard error of the median of `values` as a share of it, taking
/// them as roughly normal: 1.2533 σ / √n with σ = IQR / 1.349.
fn median_error(values: &[f64]) -> f64 {
    0.929 * iqr_share(values) / (values.len().max(1) as f64).sqrt()
}

fn delta(after: &str, before: &str, key: &str) -> f64 {
    json_field(after, key).unwrap_or(f64::NAN) - json_field(before, key).unwrap_or(f64::NAN)
}

/// `requests - (served + throttled + blocked + challenged)`: requests
/// the gateway has seen but not yet put in an outcome column.
fn in_flight(stats: &str) -> f64 {
    let f = |k| json_field(stats, k).unwrap_or(f64::NAN);
    f("requests") - f("served") - f("throttled") - f("blocked") - f("challenged")
}

struct Bench<'a> {
    cfg: &'a Config,
    plan: &'a Plan,
    origin: OriginProc,
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
    correct: bool,
}

impl<'a> Bench<'a> {
    fn problem(&mut self, what: String) {
        self.correct = false;
        if self.problems.len() < 16 {
            self.problems.push(what);
        }
    }

    /// Starts a fresh server and brings it to the state the measured
    /// plan expects; returns how long that took (spawn → first good
    /// response → warm-up plan done).
    fn set_up(&mut self) -> io::Result<(ServerProc, Driver<'a, Socket>, SetUp)> {
        let started = Instant::now();
        let server = ServerProc::spawn(&self.cfg.server_bin, self.origin.addr, SERVER_SEED)?;
        let mut driver = Driver::over_sockets(self.plan, server.addr, self.origin.addr);
        // First good response: the admin plane answers once the loop runs.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match driver.get_proxied("/admin/stats") {
                Ok((200, _)) => break,
                _ if Instant::now() > deadline => {
                    return Err(io::Error::other("the server never answered /admin/stats"))
                }
                _ => std::thread::sleep(Duration::from_millis(1)),
            }
        }
        let probe = driver.warm_up();
        let wall_s = started.elapsed().as_secs_f64() - probe.spent_ns as f64 / 1e9;
        // As long as this set-up would have taken on a quiet host.
        let slowdown = probe.fetch_ns as f64 / probe.fetches.max(1) as f64 / QUIET_PROBE_NS;
        Ok((
            server,
            driver,
            SetUp {
                wall_s,
                quiet_s: wall_s / slowdown,
            },
        ))
    }

    /// Counts what `driver` attempted and keeps what it found wrong.
    fn absorb(&mut self, tally: &mut Tally) {
        self.attempted += tally.attempted;
        self.failed += tally.failed;
        self.correct &= !tally.incorrect;
        for why in tally.described.drain(..) {
            if self.problems.len() < 16 {
                self.problems.push(why);
            }
        }
    }

    fn round(&mut self, trace: bool) -> io::Result<Round> {
        let (server, mut driver, set_up) = self.set_up()?;

        let origin_before = driver.get_direct("/__stats")?;
        let admin_before = driver.get_proxied("/admin/stats")?.1;
        let proc_before = sys::proc_sample(server.pid)?;
        let samples = driver.measure(trace);
        let proc_after = sys::proc_sample(server.pid)?;
        let admin_after = driver.get_proxied("/admin/stats")?.1;
        let origin_after = driver.get_direct("/__stats")?;

        let mut tally = std::mem::take(&mut driver.tally);
        drop(driver);
        self.absorb(&mut tally);
        let drained = server.stop()?;

        // The correctness gate on the ledgers.
        for (when, stats) in [
            ("after the measured plan", &admin_after),
            ("at drain", &drained),
        ] {
            let owed = in_flight(stats);
            if owed != 0.0 {
                self.problem(format!(
                    "{when}: requests - (served + throttled + blocked + challenged) = {owed}, in_flight must be 0: {}",
                    stats.trim()
                ));
            }
        }
        let reference_ops = samples.direct_ns.len() as f64;
        let origin_requests = delta(&origin_after, &origin_before, "requests");
        if self.plan.workload == Workload::GateOnly && origin_requests != reference_ops {
            self.problem(format!(
                "gate_only: the origin saw {} requests beyond the reference leg's in the measured phase",
                origin_requests - reference_ops
            ));
        }
        // One session per agent of the plan, none lost; at the cap, the cap.
        for (when, stats, agents) in [
            ("before", &admin_before, self.plan.warmed_sessions()),
            ("after", &admin_after, self.plan.sessions()),
        ] {
            let live = json_field(stats, "live_sessions").unwrap_or(f64::NAN);
            if live != agents as f64 {
                self.problem(format!(
                    "{live} live sessions {when} the measured plan, the plan has {agents} agents by then"
                ));
            }
        }
        Ok(Round {
            set_up,
            samples,
            proc_before,
            proc_after,
            admin_before,
            admin_after,
            origin_before,
            origin_after,
        })
    }
}

fn percentile_us(ns: &[u64], q: f64) -> f64 {
    let v = sorted(ns.iter().map(|&n| n as f64 / 1000.0).collect());
    quantile(&v, q)
}

fn mean_us(ns: &[u64]) -> f64 {
    ns.iter().sum::<u64>() as f64 / ns.len().max(1) as f64 / 1000.0
}

/// Runs the benchmark as configured.
pub fn run(cfg: &Config) -> io::Result<Outcome> {
    let pinned_cpu = sys::pin_to_last_cpu();
    let plan = Plan::build(cfg.workload, cfg.seed, cfg.smoke);
    let host_before = sys::host_sample(pinned_cpu);
    let calib_ns = sys::alu_calibration_ns();
    let mut bench = Bench {
        cfg,
        plan: &plan,
        origin: OriginProc::spawn(&cfg.exe)?,
        problems: Vec::new(),
        attempted: 0,
        failed: 0,
        correct: true,
    };

    let wanted = if cfg.trace || cfg.smoke { 1 } else { ROUNDS };
    let mut rounds: Vec<Round> = Vec::new();
    let mut reruns = 0;
    while rounds.len() < wanted {
        let round = bench.round(cfg.trace)?;
        let disturbed = median_error(&cost_ratios(&round.samples.pairs)) > MAX_MEDIAN_ERROR;
        if disturbed && reruns < MAX_RERUNS && !cfg.smoke {
            reruns += 1;
            continue;
        }
        rounds.push(round);
    }
    let host_after = sys::host_sample(pinned_cpu);

    let per_round = |f: &dyn Fn(&Round) -> f64| -> Vec<f64> { rounds.iter().map(f).collect() };
    let pairs: usize = rounds.iter().map(|r| r.samples.pairs.len()).sum();
    if rounds.iter().any(|r| r.samples.pairs.is_empty()) {
        bench.problem("a round finished without one complete block pair".to_string());
    }
    // Pooled over rounds: a round the neighbour sat through entirely
    // contributes no pair, and the others make up for it.
    let fast = fast_pairs(
        &rounds.iter().map(|r| &r.samples).collect::<Vec<_>>(),
        plan.workload.block_ops(),
    );
    let scored: Vec<Pair> = rounds
        .iter()
        .zip(&fast)
        .flat_map(|(r, fast)| {
            r.samples
                .pairs
                .iter()
                .zip(fast)
                .filter(|(_, &f)| f)
                .map(|(p, _)| *p)
        })
        .collect();
    let cost_x = median(&cost_ratios(&scored));
    // What the issue planned to report: every pair counts, a round's
    // value is its median, a run's the median of its rounds'.
    let cost_x_all_pairs = median(&per_round(&|r| median(&cost_ratios(&r.samples.pairs))));
    let ttfb_x = median(&ratios(&scored, |p| {
        (p.proxied_ttfb_ns, p.reference_ttfb_ns)
    }));
    // Scaled times err both ways, so their median; the wall clock only
    // ever reads too long, so its minimum (what the issue planned).
    let setup_s = median(&per_round(&|r| r.set_up.quiet_s));
    let setup_wall_s = per_round(&|r| r.set_up.wall_s)
        .into_iter()
        .fold(f64::INFINITY, f64::min);
    let rss_mb = median(&per_round(&|r| r.proc_after.rss_peak_kb as f64 / 1024.0));
    let wire = median(&per_round(&|r| {
        r.samples.wire_bytes as f64 / r.samples.serve_ns.len().max(1) as f64
    }));
    let end_to_end = vec![
        Metric::new("setup_s", setup_s, "s", rounds.len()),
        Metric::new("cost_x", cost_x, "x", scored.len()),
        Metric::new("ttfb_x", ttfb_x, "x", scored.len()),
        Metric::new("server_rss_peak_mb", rss_mb, "MB", rounds.len()),
        Metric::new("wire_bytes_per_op", wire, "B", rounds.len()),
    ];

    // Black-box numbers of the last round: free in every run, and the
    // per-layer report of a traced one.
    let last = rounds.last().expect("at least one round ran");
    let s = &last.samples;
    let ops = s.serve_ns.len();
    let admin = |key: &str| delta(&last.admin_after, &last.admin_before, key);
    let connects = admin("origin_connects");
    let reuses = admin("origin_reuses");
    let refused = admin("throttled") + admin("blocked") + admin("challenged");
    let host_total = (host_after.total - host_before.total).max(1) as f64;
    let host = |pick: fn(&HostSample) -> u64| (pick(&host_after) - pick(&host_before)) as f64;
    let serve_s = s.serve_ns.iter().sum::<u64>() as f64 / 1e9;
    let black_box = vec![
        Metric::new("serve.server.requests", admin("serve_requests"), "count", 1),
        Metric::new(
            "serve.server.connections",
            admin("serve_connections"),
            "count",
            1,
        ),
        Metric::new("serve.server.origin_connects", connects, "count", 1),
        Metric::new(
            "serve.server.origin_reuse_ratio",
            if connects + reuses > 0.0 {
                reuses / (connects + reuses)
            } else {
                0.0
            },
            "ratio",
            1,
        ),
        Metric::new(
            "serve.server.origin_retries",
            admin("origin_retries"),
            "count",
            1,
        ),
        Metric::new(
            "gateway.live_sessions",
            json_field(&last.admin_after, "live_sessions").unwrap_or(f64::NAN),
            "count",
            1,
        ),
        Metric::new(
            "gateway.token_entries",
            json_field(&last.admin_after, "token_entries").unwrap_or(f64::NAN),
            "count",
            1,
        ),
        Metric::new(
            "gateway.refused_share",
            refused / admin("requests"),
            "ratio",
            ops,
        ),
        Metric::new(
            "serve.proc.cpu_us_per_op",
            (last.proc_after.cpu_ns - last.proc_before.cpu_ns) as f64 / 1000.0 / ops.max(1) as f64,
            "us",
            ops,
        ),
        Metric::new(
            "serve.proc.ctx_switches_per_op",
            (last.proc_after.ctx_switches - last.proc_before.ctx_switches) as f64
                / ops.max(1) as f64,
            "1/op",
            ops,
        ),
        Metric::new(
            "client.serve_us_p50",
            percentile_us(&s.serve_ns, 0.5),
            "us",
            ops,
        ),
        Metric::new(
            "client.serve_us_p90",
            percentile_us(&s.serve_ns, 0.9),
            "us",
            ops,
        ),
        Metric::new(
            "client.serve_us_p99",
            percentile_us(&s.serve_ns, 0.99),
            "us",
            ops,
        ),
        Metric::new(
            "client.serve_us_max",
            percentile_us(&s.serve_ns, 1.0),
            "us",
            ops,
        ),
        Metric::new(
            "client.direct_us_p50",
            percentile_us(&s.direct_ns, 0.5),
            "us",
            s.direct_ns.len(),
        ),
        Metric::new(
            "client.ttfb_us_p50",
            percentile_us(&s.ttfb_ns, 0.5),
            "us",
            ops,
        ),
        Metric::new("client.ops_per_s_mean", ops as f64 / serve_s, "1/s", ops),
        Metric::new("client.setup_wall_s", setup_wall_s, "s", rounds.len()),
        Metric::new("client.cost_x_all_pairs", cost_x_all_pairs, "x", pairs),
        Metric::new("client.ops", ops as f64, "count", 1),
        Metric::new("client.block_pairs", s.pairs.len() as f64, "count", 1),
        Metric::new(
            "client.ratio_iqr",
            iqr_share(&cost_ratios(&s.pairs)),
            "ratio",
            s.pairs.len(),
        ),
        Metric::new(
            "origin.requests",
            delta(&last.origin_after, &last.origin_before, "requests"),
            "count",
            1,
        ),
        Metric::new(
            "origin.connections",
            delta(&last.origin_after, &last.origin_before, "connections"),
            "count",
            1,
        ),
        Metric::new("host.pinned_cpu", f64::from(pinned_cpu), "cpu", 1),
        Metric::new(
            "host.steal_share",
            host(|h| h.steal) / host_total,
            "ratio",
            1,
        ),
        Metric::new(
            "host.other_cpu_busy_share",
            host(|h| h.other_busy) / host(|h| h.other_total).max(1.0),
            "ratio",
            1,
        ),
        Metric::new("host.calib_ns", calib_ns as f64, "ns", 5),
        Metric::new("host.rounds_rerun", reruns as f64, "count", 1),
        Metric::new(
            "host.fast_pair_share",
            scored.len() as f64 / pairs.max(1) as f64,
            "ratio",
            pairs,
        ),
    ];

    let (metrics, notes) = if cfg.trace {
        let mut per_layer = layers::measure(cfg.smoke)?;
        per_layer.extend(black_box);
        // The traced spans, then the same plan replayed in-process.
        let spans = &s.spans;
        let span_us = |pick: fn(&crate::drive::Span) -> u64| {
            percentile_us(&spans.iter().map(pick).collect::<Vec<_>>(), 0.5)
        };
        let none_if_empty = |v: f64| if spans.is_empty() { 0.0 } else { v };
        let replayed = replay::run(&plan, SERVER_SEED);
        if replayed.failed > 0 {
            bench.problem(format!(
                "in-process replay: {} of {} operations failed: {:?}",
                replayed.failed, replayed.attempted, replayed.described
            ));
        }
        let serve_mean = mean_us(&s.serve_ns);
        let hops = s.socket_hops_ns as f64 / 1000.0 / ops.max(1) as f64;
        let unattributed = serve_mean - replayed.us_per_op - hops;
        let overhead = if s.untraced_serve_ns.is_empty() {
            0.0
        } else {
            percentile_us(&s.traced_serve_ns, 0.5) / percentile_us(&s.untraced_serve_ns, 0.5) - 1.0
        };
        per_layer.extend([
            Metric::new(
                "trace.inbound_us",
                none_if_empty(span_us(|s| s.inbound_ns)),
                "us",
                spans.len(),
            ),
            Metric::new(
                "trace.origin_us",
                none_if_empty(span_us(|s| s.origin_ns)),
                "us",
                spans.len(),
            ),
            Metric::new(
                "trace.outbound_ttfb_us",
                none_if_empty(span_us(|s| s.outbound_ttfb_ns)),
                "us",
                spans.len(),
            ),
            Metric::new(
                "trace.body_us",
                none_if_empty(span_us(|s| s.body_ns)),
                "us",
                spans.len(),
            ),
            Metric::new(
                "trace.inproc_us_per_op",
                replayed.us_per_op,
                "us",
                replayed.ops,
            ),
            Metric::new("trace.socket_hops_us", hops, "us", ops),
            Metric::new("trace.unattributed_us", unattributed, "us", ops),
            Metric::new(
                "trace.unattributed_share",
                unattributed / serve_mean,
                "ratio",
                ops,
            ),
            Metric::new(
                "trace.overhead_share",
                overhead,
                "ratio",
                s.traced_serve_ns.len(),
            ),
        ]);
        (per_layer, end_to_end)
    } else {
        (end_to_end, black_box)
    };

    Ok(Outcome {
        correct: bench.correct,
        attempted: bench.attempted.max(1),
        failed: bench.failed,
        metrics,
        notes,
        problems: bench.problems,
        plan_hash: plan.hash(),
    })
}
