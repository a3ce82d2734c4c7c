//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <decide-unique|decide-hot-heavy> --seed <n> \
//!           --seconds <s> --trace <0|1> --server-bin <path to stream-score>
//! ```
//!
//! An untraced run (`--trace 0`) starts the service as its own process and
//! drives a seeded open-loop workload at two fixed rates, running the
//! simulator batch in-process between the rounds while the service idles.
//! It checks every response byte, enforces the workload's validity gates
//! and prints the end-to-end metrics. A traced run (`--trace 1`) drives
//! the same rounds plus a goodput ladder with the service as deployed,
//! then replays the same seeded inputs in-process through each layer's
//! public calls and prints the per-layer metrics. The last stdout line is
//! the JSON result. `perfbench/README.md` documents every workload,
//! metric and gate.

// Reading the wall clock is this program's job; the repository bans it
// elsewhere to keep simulation output deterministic.
#![allow(clippy::disallowed_methods)]

mod awake;
mod gen;
mod layers;
mod load;
mod metrics;
mod service;
mod simbatch;
mod stats;
mod trace;

use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use sss_core::Scenario;
use sss_exec::ThreadPool;
use sss_server::cache::CacheKey;
use sss_server::Health;

use gen::{DecideCase, HeavyCase, HeavyKind, Rng, Zipf};
use load::{Arrival, Expect, Outcome};
use metrics::{result_line, END_TO_END, PER_LAYER};
use service::Service;
use stats::{median, percentile};

/// Offered rate of the light fixed-rate phase, req/s.
const LIGHT_RATE: f64 = 1000.0;
/// Ladder rungs climb by this factor.
const LADDER_STEP: f64 = 1.1;
/// Geometric bisections above the best passing rung.
const LADDER_REFINE: usize = 2;
/// The goodput latency limit on a rung's admitted p99 for the miss path,
/// ms.
const GOODPUT_LIMIT_MS: f64 = 2.0;
/// The limit for decide-hot-heavy: its hits share both cores with heavy
/// requests that each hold them for ~20 ms, so a 2 ms p99 would measure
/// the heavy trickle rather than the hit path's capacity.
const HOT_GOODPUT_LIMIT_MS: f64 = 10.0;
/// Most failures a passing rung may have, as a share of its requests.
const GOODPUT_MAX_FAILED: f64 = 0.001;
/// Service starts per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 21;
/// Hot workloads in decide-hot-heavy.
const HOT_KEYS: usize = 1024;
/// Zipf exponent over the hot workloads.
const ZIPF_S: f64 = 1.1;
/// Heavy requests per second on decide-hot-heavy's second connection.
const HEAVY_RATE: f64 = 5.0;
/// Validity gate: decide-hot-heavy's decision-cache hit ratio.
const MIN_HOT_HIT_RATIO: f64 = 0.95;
/// Validity gate on the generator's send lag in the fixed-rate phases:
/// the median over windows of each window's p99 lag, ms.
const MAX_LATE_P99_MS: f64 = 5.0;
/// Heavy requests of each kind the traced run replays in-process.
const HEAVY_PROBES_PER_KIND: usize = 3;
/// Requests the traced run replays through `Batcher::submit`.
const SUBMIT_PROBES: usize = 4000;
/// The traced run times one part in this many of the simulator batch's
/// repetitions, three times over.
const TRACED_SIM_PARTS: usize = 3;
/// A seed no tuning used; later claims are re-checked on it.
const HELD_OUT_SEED: u64 = 7919;

/// The fixed-rate phases run as this many interleaved rounds of one
/// light and one base segment, so slow drifts of the machine touch both
/// rates alike.
const ROUNDS: usize = 12;
/// One segment lasts this share of `--seconds`.
const SEGMENT_SHARE: f64 = 1.0 / 24.0;
/// Windows per base segment (a light window needs its whole segment to
/// hold ten requests beyond its p99).
const BASE_WINDOWS: usize = 4;
/// One ladder rung lasts this share of `--seconds`, cut into windows.
const RUNG_SHARE: f64 = 0.02;
const RUNG_WINDOWS: usize = 3;
/// The ladder stops after this many failing rungs in a row.
const LADDER_PATIENCE: usize = 2;
/// Tries per ladder rung: a rung passes when any try does, since a try
/// spoiled by the host withholding a vCPU says nothing about the service.
const RUNG_TRIES: usize = 3;
/// A fixed-rate segment whose generator fell behind is re-driven, with
/// fresh inputs, at most this many times.
const SEGMENT_RETRIES: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    /// Open loop, 2 connections, every `/decide` body distinct.
    DecideUnique,
    /// Open loop: Zipf-hot `/decide` on one connection, a heavy trickle
    /// on the other.
    DecideHotHeavy,
}

impl Workload {
    fn parse(name: &str) -> Result<Workload, String> {
        match name {
            "decide-unique" => Ok(Workload::DecideUnique),
            "decide-hot-heavy" => Ok(Workload::DecideHotHeavy),
            other => Err(format!(
                "unknown workload {other:?} (decide-unique, decide-hot-heavy)"
            )),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::DecideUnique => "decide-unique",
            Workload::DecideHotHeavy => "decide-hot-heavy",
        }
    }

    /// The latency limit a goodput ladder rung's p99 must meet, ms.
    fn goodput_limit_ms(self) -> f64 {
        match self {
            Workload::DecideUnique => GOODPUT_LIMIT_MS,
            Workload::DecideHotHeavy => HOT_GOODPUT_LIMIT_MS,
        }
    }

    /// The base fixed rate and the ladder's first rung, req/s.
    fn base_rate(self) -> f64 {
        match self {
            Workload::DecideUnique => 6000.0,
            Workload::DecideHotHeavy => 4000.0,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    server_bin: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name.to_string(), value.clone());
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("missing --{k}"));
    let seconds: f64 = get("seconds")?.parse().map_err(|_| "bad --seconds")?;
    if !(1.0..=60.0).contains(&seconds) {
        return Err("--seconds must be within 1..=60".into());
    }
    Ok(Args {
        workload: Workload::parse(get("workload")?)?,
        seed: get("seed")?.parse().map_err(|_| "bad --seed")?,
        seconds,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        },
        server_bin: PathBuf::from(get("server-bin")?),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// One phase's traffic: up to two connections' schedules.
struct Phase {
    label: String,
    rate: f64,
    secs: f64,
    lanes: [Vec<Arrival>; 2],
    /// Which lanes carry `/decide` (the others carry heavy requests).
    decide_lane: [bool; 2],
    /// Every `/decide` case in send order.
    cases: Vec<DecideCase>,
    /// Heavy requests, aligned with lane 1 when it carries them.
    heavy: Vec<HeavyCase>,
}

/// The seeded traffic source of one run.
struct Plan {
    workload: Workload,
    seed: u64,
    catalog: Vec<Scenario>,
    seen: HashSet<CacheKey>,
    hot: Vec<DecideCase>,
    zipf: Zipf,
    heavy_serial: u64,
}

impl Plan {
    fn new(workload: Workload, seed: u64) -> Plan {
        let catalog = Scenario::all();
        let mut seen = HashSet::new();
        let hot = match workload {
            Workload::DecideUnique => Vec::new(),
            Workload::DecideHotHeavy => {
                let mut rng = Rng::stream(seed, "hot-set");
                (0..HOT_KEYS)
                    .map(|_| gen::unique_decide(&mut rng, &catalog, &mut seen))
                    .collect()
            }
        };
        Plan {
            workload,
            seed,
            catalog,
            seen,
            hot,
            zipf: Zipf::new(HOT_KEYS, ZIPF_S),
            heavy_serial: 0,
        }
    }

    fn decide_arrival(at_ns: u64, case: &DecideCase) -> Arrival {
        Arrival {
            at_ns,
            wire: case.wire.clone(),
            expect: Expect::Exact(case.expect.clone()),
        }
    }

    /// Poisson traffic at `rate` for `secs`, seeded by `label`.
    fn phase(&mut self, label: &str, rate: f64, secs: f64) -> Phase {
        let mut rng = Rng::stream(self.seed, label);
        let times = gen::poisson_schedule(&mut rng, rate, secs);
        let mut lanes: [Vec<Arrival>; 2] = [Vec::new(), Vec::new()];
        let mut cases = Vec::with_capacity(times.len());
        let mut heavy = Vec::new();
        match self.workload {
            Workload::DecideUnique => {
                for (i, &t) in times.iter().enumerate() {
                    let case = gen::unique_decide(&mut rng, &self.catalog, &mut self.seen);
                    lanes[i % 2].push(Self::decide_arrival(t, &case));
                    cases.push(case);
                }
            }
            Workload::DecideHotHeavy => {
                for &t in &times {
                    let case = self.hot[self.zipf.sample(&mut rng)].clone();
                    lanes[0].push(Self::decide_arrival(t, &case));
                    cases.push(case);
                }
                let mut hrng = Rng::stream(self.seed, &format!("{label}/heavy"));
                for t in gen::poisson_schedule(&mut hrng, HEAVY_RATE, secs) {
                    self.heavy_serial += 1;
                    let case = gen::heavy_case(
                        &mut hrng,
                        &self.catalog,
                        &mut self.seen,
                        self.heavy_serial,
                    );
                    lanes[1].push(Arrival {
                        at_ns: t,
                        wire: case.wire.clone(),
                        expect: Expect::Keep,
                    });
                    heavy.push(case);
                }
            }
        }
        let decide_lane = [true, self.workload == Workload::DecideUnique];
        Phase {
            label: label.to_string(),
            rate,
            secs,
            lanes,
            decide_lane,
            cases,
            heavy,
        }
    }

    /// Untimed warm-up: half a second of base-rate misses, or each hot
    /// workload once.
    fn warmup(&mut self) -> Phase {
        match self.workload {
            Workload::DecideUnique => self.phase("warmup", self.workload.base_rate(), 0.5),
            Workload::DecideHotHeavy => {
                let gap = 1e9 / self.workload.base_rate();
                let lane: Vec<Arrival> = self
                    .hot
                    .iter()
                    .enumerate()
                    .map(|(i, c)| Self::decide_arrival((i as f64 * gap) as u64, c))
                    .collect();
                Phase {
                    label: "warmup".into(),
                    rate: self.workload.base_rate(),
                    secs: self.hot.len() as f64 * gap / 1e9,
                    lanes: [lane, Vec::new()],
                    decide_lane: [true, false],
                    cases: self.hot.clone(),
                    heavy: Vec::new(),
                }
            }
        }
    }

    /// Heavy requests of every kind for the traced run's in-process probe.
    fn heavy_probes(&mut self) -> Vec<HeavyCase> {
        let mut rng = Rng::stream(self.seed, "heavy-probe");
        let mut out = Vec::new();
        for kind in [HeavyKind::Fleet, HeavyKind::Simulate, HeavyKind::Frontier] {
            for _ in 0..HEAVY_PROBES_PER_KIND {
                self.heavy_serial += 1;
                out.push(gen::heavy_of_kind(
                    kind,
                    &mut rng,
                    &self.catalog,
                    &mut self.seen,
                    self.heavy_serial,
                ));
            }
        }
        out
    }
}

/// What one phase measured.
struct PhaseResult {
    label: String,
    rate: f64,
    secs: f64,
    attempted: u64,
    failed: u64,
    mismatched: u64,
    decide_ok: u64,
    /// Each window's p50, in time order.
    window_p50s: Vec<f64>,
    /// Each window's p99, in time order.
    window_p99s: Vec<f64>,
    /// Each window's generator send-lag p99, ms.
    window_late_p99s: Vec<f64>,
    /// Heavy requests with their outcomes, checked after the window.
    heavy: Vec<(HeavyCase, Outcome)>,
}

impl PhaseResult {
    fn goodput_rps(&self) -> f64 {
        self.decide_ok as f64 / self.secs
    }

    /// Median over the windows of each window's p50.
    fn p50_ms(&self) -> f64 {
        median(&self.window_p50s)
    }

    /// Median over the windows of each window's p99: one scheduling stall
    /// on a small shared machine moves one window, not the phase.
    fn p99_ms(&self) -> f64 {
        median(&self.window_p99s)
    }

    /// The last window's p50: above the limit means a growing backlog.
    fn tail_p50_ms(&self) -> f64 {
        self.window_p50s.last().copied().unwrap_or(f64::INFINITY)
    }

    fn passes(&self, limit_ms: f64) -> bool {
        self.p99_ms() <= limit_ms
            && self.tail_p50_ms() <= limit_ms
            && self.failed as f64 <= GOODPUT_MAX_FAILED * self.attempted as f64
    }

    fn print(&self) {
        println!(
            "phase {:<12} rate {:>8.0} req/s  sent {:>6}  ok {:>6}  failed {:>3}  p50 {:.3} ms  p99 {:.3} ms  tail-p50 {:.3} ms  late-p99 {:.3} ms  goodput {:.0} req/s",
            self.label,
            self.rate,
            self.attempted,
            self.decide_ok,
            self.failed,
            self.p50_ms(),
            self.p99_ms(),
            self.tail_p50_ms(),
            median(&self.window_late_p99s),
            self.goodput_rps()
        );
    }
}

/// Drive a phase's lanes (from this one thread) and cut
/// its `/decide` latencies into `windows` equal windows of send time.
fn run_phase(addr: std::net::SocketAddr, phase: &Phase, windows: usize) -> PhaseResult {
    let t0 = Instant::now() + Duration::from_millis(5);
    let outcomes = load::drive(addr, t0, &[&phase.lanes[0], &phase.lanes[1]]);
    let window_ns = (phase.secs * 1e9 / windows as f64).max(1.0);
    let mut r = PhaseResult {
        label: phase.label.clone(),
        rate: phase.rate,
        secs: phase.secs,
        attempted: 0,
        failed: 0,
        mismatched: 0,
        decide_ok: 0,
        window_p50s: Vec::new(),
        window_p99s: Vec::new(),
        window_late_p99s: Vec::new(),
        heavy: Vec::new(),
    };
    let mut by_window: Vec<Vec<f64>> = vec![Vec::new(); windows];
    let mut late_by_window: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for (lane, outcomes) in outcomes.into_iter().enumerate() {
        for (i, (a, o)) in phase.lanes[lane].iter().zip(outcomes).enumerate() {
            let w = ((a.at_ns as f64 / window_ns) as usize).min(windows - 1);
            r.attempted += 1;
            late_by_window[w].push(o.late_ns as f64 / 1e6);
            if !o.ok() {
                r.failed += 1;
                r.mismatched += u64::from(o.status == 200);
            } else if phase.decide_lane[lane] {
                r.decide_ok += 1;
                by_window[w].push(o.latency_ns as f64 / 1e6);
            }
            if !phase.decide_lane[lane] && o.status == 200 {
                r.heavy.push((phase.heavy[i].clone(), o));
            }
        }
    }
    for w in &mut by_window {
        w.sort_by(f64::total_cmp);
        r.window_p50s.push(percentile(w, 0.5));
        r.window_p99s.push(percentile(w, 0.99));
    }
    for w in &mut late_by_window {
        w.sort_by(f64::total_cmp);
        r.window_late_p99s.push(percentile(w, 0.99));
    }
    r
}

/// Climb from the base rate by ×1.1 until `LADDER_PATIENCE` rungs in a
/// row break the limit (or descend while the base rate does), then bisect
/// the gap above the best passing rung. Returns every rung run and the
/// index of the best passing one.
fn ladder(
    plan: &mut Plan,
    addr: std::net::SocketAddr,
    rung_secs: f64,
) -> (Vec<PhaseResult>, Option<usize>) {
    let mut rungs: Vec<PhaseResult> = Vec::new();
    let mut run = |plan: &mut Plan, rate: f64| -> (bool, usize) {
        for t in 0..RUNG_TRIES {
            let label = match t {
                0 => format!("rung-{rate:.0}"),
                t => format!("rung-{rate:.0}.try{t}"),
            };
            let phase = plan.phase(&label, rate, rung_secs);
            let r = run_phase(addr, &phase, RUNG_WINDOWS);
            r.print();
            let ok = r.passes(plan.workload.goodput_limit_ms());
            rungs.push(r);
            std::thread::sleep(Duration::from_millis(50));
            if ok {
                return (true, rungs.len() - 1);
            }
        }
        (false, rungs.len() - 1)
    };
    let base = plan.workload.base_rate();
    let mut best: Option<(f64, usize)> = None;
    let mut rate = base;
    let mut misses = 0;
    while misses < LADDER_PATIENCE && rate < base * 100.0 {
        let (ok, idx) = run(plan, rate);
        if ok {
            best = Some((rate, idx));
            misses = 0;
        } else {
            misses += 1;
        }
        rate *= LADDER_STEP;
    }
    if best.is_none() {
        rate = base;
        while best.is_none() && rate > LIGHT_RATE {
            rate /= LADDER_STEP;
            let (ok, idx) = run(plan, rate);
            if ok {
                best = Some((rate, idx));
            }
        }
    }
    if let Some((mut lo, _)) = best {
        let mut hi = lo * LADDER_STEP;
        for _ in 0..LADDER_REFINE {
            let mid = (lo * hi).sqrt();
            let (ok, idx) = run(plan, mid);
            if ok {
                best = Some((mid, idx));
                lo = mid;
            } else {
                hi = mid;
            }
        }
    }
    (rungs, best.map(|(_, idx)| idx))
}

/// The fixed-rate segments of a run.
struct Rounds {
    light: Vec<PhaseResult>,
    base: Vec<PhaseResult>,
    /// Segments re-driven because the generator fell behind: their
    /// responses are still checked, their latencies are not reported.
    discarded: Vec<PhaseResult>,
    /// The base segments' `/decide` inputs, in send order (kept for the
    /// traced replay).
    base_cases: Vec<DecideCase>,
}

/// `ROUNDS` rounds of one light and one base segment, calling `between`
/// with the round's index after each. An untraced run drives them with
/// the vCPUs kept awake (see `awake`) for repeatable p50s; a traced run
/// drives them as deployed and keeps the base segments' inputs for its
/// in-process replay.
fn fixed_rounds(
    plan: &mut Plan,
    addr: std::net::SocketAddr,
    seconds: f64,
    traced: bool,
    between: &mut dyn FnMut(usize),
) -> Rounds {
    let secs = seconds * SEGMENT_SHARE;
    let mut rounds = Rounds {
        light: Vec::new(),
        base: Vec::new(),
        discarded: Vec::new(),
        base_cases: Vec::new(),
    };
    for k in 0..ROUNDS {
        let (l, _) = valid_segment(
            plan,
            addr,
            "light",
            k,
            LIGHT_RATE,
            secs,
            1,
            traced,
            &mut rounds,
        );
        let rate = plan.workload.base_rate();
        let (b, cases) = valid_segment(
            plan,
            addr,
            "base",
            k,
            rate,
            secs,
            BASE_WINDOWS,
            traced,
            &mut rounds,
        );
        rounds.light.push(l);
        rounds.base.push(b);
        if traced {
            rounds.base_cases.extend(cases);
        }
        between(k);
    }
    rounds
}

/// Drive one fixed-rate segment until the generator keeps its schedule
/// (its lag, the median over its windows of each window's p99, is within
/// `MAX_LATE_P99_MS`), each retry with fresh seeded inputs, at most
/// `SEGMENT_RETRIES` times; earlier tries go to `rounds.discarded`.
/// Returns the kept segment (the last try, so a segment that never kept
/// up still fails the run's gate) and its `/decide` inputs.
#[allow(clippy::too_many_arguments)]
fn valid_segment(
    plan: &mut Plan,
    addr: std::net::SocketAddr,
    kind: &str,
    k: usize,
    rate: f64,
    secs: f64,
    windows: usize,
    traced: bool,
    rounds: &mut Rounds,
) -> (PhaseResult, Vec<DecideCase>) {
    let mut attempt = 0;
    loop {
        let label = match attempt {
            0 => format!("{kind}-{k}"),
            n => format!("{kind}-{k}.retry{n}"),
        };
        let phase = plan.phase(&label, rate, secs);
        let r = if traced {
            run_phase(addr, &phase, windows)
        } else {
            awake::with_cpus_awake(|| run_phase(addr, &phase, windows))
        };
        r.print();
        if median(&r.window_late_p99s) <= MAX_LATE_P99_MS || attempt == SEGMENT_RETRIES {
            return (r, phase.cases);
        }
        rounds.discarded.push(r);
        attempt += 1;
    }
}

/// p50 and p99 of a set of segments: the medians over all their windows.
fn windowed(segments: &[PhaseResult]) -> (f64, f64) {
    let p50s: Vec<f64> = segments
        .iter()
        .flat_map(|r| r.window_p50s.iter().copied())
        .collect();
    let p99s: Vec<f64> = segments
        .iter()
        .flat_map(|r| r.window_p99s.iter().copied())
        .collect();
    (median(&p50s), median(&p99s))
}

/// Per-run bookkeeping shared by both run kinds.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    fn phase(&mut self, r: &PhaseResult) {
        self.attempted += r.attempted;
        self.failed += r.failed;
        if r.mismatched > 0 {
            self.problems.push(format!(
                "{}: {} response bodies differed from the library's",
                r.label, r.mismatched
            ));
        }
    }

    /// One more check, counted as an attempt.
    fn check(&mut self, ok: bool, what: impl Into<String>) {
        self.attempted += 1;
        self.fail_unless(ok, what);
    }

    /// Fail an attempt already counted.
    fn fail_unless(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.failed += 1;
            self.problems.push(what.into());
        }
    }
}

fn delta_hits(a: &Health, b: &Health) -> (u64, u64) {
    (b.cache.hits - a.cache.hits, b.cache.misses - a.cache.misses)
}

/// Start the service `SETUP_REPEATS` times; returns the last one and the
/// median start-up time.
fn start_service(bin: &Path, repeats: usize) -> Result<(Service, f64), String> {
    let mut times = Vec::new();
    let mut svc = None;
    for _ in 0..repeats {
        drop(svc.take());
        let (s, secs) = Service::start(bin)?;
        times.push(secs);
        svc = Some(s);
    }
    Ok((svc.expect("at least one start"), median(&times)))
}

/// The generator's send lag: the median over windows of each window's p99.
fn late_p99_ms(results: &[&PhaseResult]) -> f64 {
    let windows: Vec<f64> = results
        .iter()
        .flat_map(|r| r.window_late_p99s.iter().copied())
        .collect();
    median(&windows)
}

/// Gates that make a service run valid. Pushes a problem for each broken one.
fn gate(tally: &mut Tally, workload: Workload, hits: (u64, u64), late_p99: f64) {
    let ratio = hits.0 as f64 / (hits.0 + hits.1).max(1) as f64;
    match workload {
        Workload::DecideUnique => tally.check(
            hits.0 == 0,
            format!(
                "invalid: decide-unique served {} cache hits (must be 0)",
                hits.0
            ),
        ),
        Workload::DecideHotHeavy => tally.check(
            ratio >= MIN_HOT_HIT_RATIO,
            format!("invalid: hit ratio {ratio:.4} below {MIN_HOT_HIT_RATIO}"),
        ),
    }
    tally.check(
        late_p99 <= MAX_LATE_P99_MS,
        format!("invalid: generator late p99 {late_p99:.3} ms above {MAX_LATE_P99_MS} ms"),
    );
    println!(
        "gates: cache hits {} misses {} (ratio {ratio:.4}); generator late p99 {late_p99:.3} ms (bound {MAX_LATE_P99_MS} ms)",
        hits.0, hits.1
    );
}

/// Byte-compare every heavy body against the library's serialization.
fn verify_heavy(tally: &mut Tally, results: &[&PhaseResult], pool: &ThreadPool) -> Vec<f64> {
    let mut lat = Vec::new();
    for r in results {
        for (case, o) in &r.heavy {
            lat.push(o.latency_ns as f64 / 1e6);
            let want = layers::heavy_body(case, pool);
            tally.fail_unless(
                want.as_deref().map(str::as_bytes) == o.body.as_deref(),
                format!(
                    "{}: a {} body differed from the library's",
                    r.label,
                    case.kind.path()
                ),
            );
        }
    }
    lat
}

/// Check the simulator batch's outputs and print what it did; returns the
/// fleet's sequential-over-pool time ratio.
fn check_sim(
    tally: &mut Tally,
    jobs: &simbatch::SimJobs,
    pass: &simbatch::SimPass,
    pool: &ThreadPool,
) -> f64 {
    tally.check(pass.errors == 0, "sim-batch: a fleet job failed");
    let (failed, seq_over_par) = simbatch::verify(jobs, pool);
    tally.check(failed.is_empty(), failed.join("; "));
    println!(
        "sim-batch: {:.3} s; fleet {:.0} sessions/s ({} events); replay {:.1} cells/s; frontier {:.0} evaluations/s ({} evaluations)",
        pass.total_s,
        pass.fleet_sessions_per_s(),
        pass.fleet_events,
        pass.replay_cells_per_s(),
        pass.frontier_evals_per_s(),
        pass.frontier_evals
    );
    seq_over_par
}

fn run(args: &Args) -> Result<bool, String> {
    if !args.server_bin.is_file() {
        return Err(format!(
            "no service binary at {}",
            args.server_bin.display()
        ));
    }
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let fingerprint = fingerprint(args.seed);
    println!("fingerprint {fingerprint}");
    let (tally, values, defs) = if args.trace {
        traced(args)?
    } else {
        untraced(args)?
    };
    for p in &tally.problems {
        println!("FAILED {p}");
    }
    for d in defs {
        if let Some(v) = values.get(d.name) {
            println!(
                "metric {:<36} {:>16.6} {:<6} {:<6} better  ({})",
                d.name, v, d.unit, d.better, d.moves
            );
        }
    }
    let correct = tally.problems.is_empty()
        && defs
            .iter()
            .all(|d| values.get(d.name).is_some_and(|v| v.is_finite()));
    let line = result_line(correct, tally.attempted, tally.failed, defs, &values);
    save_result(args, &fingerprint, &line);
    println!("{line}");
    Ok(correct)
}

type RunOutput = (Tally, BTreeMap<&'static str, f64>, &'static [metrics::Def]);

/// What the service phases of a run measured.
struct ServiceRun {
    warm: Phase,
    rounds: Rounds,
    rungs: Vec<PhaseResult>,
    best_rung: Option<usize>,
    setup_s: f64,
    peak_rss_mb: f64,
    /// Decision-cache (hits, misses) over the timed phases.
    hits: (u64, u64),
    /// Mean `/decide` batch size over the timed phases.
    mean_batch: f64,
    late_p99_ms: f64,
}

/// Start the service, warm it up, drive the interleaved fixed-rate rounds
/// (calling `between` after each) and, for a traced run, the goodput
/// ladder; stop it, then check the validity gates and the heavy bodies.
fn service_phases(
    args: &Args,
    plan: &mut Plan,
    tally: &mut Tally,
    pool: &ThreadPool,
    traced: bool,
    between: &mut dyn FnMut(usize),
) -> Result<ServiceRun, String> {
    let (svc, setup_s) = start_service(&args.server_bin, SETUP_REPEATS)?;
    let h0 = svc.healthz().ok_or("no /healthz before warm-up")?;
    let warm = plan.warmup();
    let w = run_phase(svc.addr, &warm, 1);
    tally.check(
        w.failed == 0,
        format!("warm-up: {} requests failed", w.failed),
    );
    let h1 = svc.healthz().ok_or("no /healthz after warm-up")?;
    let rounds = fixed_rounds(plan, svc.addr, args.seconds, traced, between);
    let peak_rss_mb = svc.peak_rss_mb().ok_or("cannot read the server's VmHWM")?;
    let h2 = svc
        .healthz()
        .ok_or("no /healthz after the fixed-rate rounds")?;
    let (rungs, best_rung) = if traced {
        ladder(plan, svc.addr, args.seconds * RUNG_SHARE)
    } else {
        (Vec::new(), None)
    };
    let h3 = svc.healthz().ok_or("no /healthz after the ladder")?;
    drop(svc);

    for r in rounds
        .light
        .iter()
        .chain(&rounds.base)
        .chain(&rounds.discarded)
        .chain(&rungs)
    {
        tally.phase(r);
    }
    // Every decide-unique body is new, warm-up included; decide-hot-heavy
    // is judged after its warm-up.
    let hits = match args.workload {
        Workload::DecideUnique => delta_hits(&h0, &h3),
        Workload::DecideHotHeavy => delta_hits(&h1, &h3),
    };
    let fixed: Vec<&PhaseResult> = rounds.light.iter().chain(&rounds.base).collect();
    let late_p99_ms = late_p99_ms(&fixed);
    gate(tally, args.workload, hits, late_p99_ms);
    if !rounds.discarded.is_empty() {
        println!(
            "{} segment tries re-driven: the generator fell behind",
            rounds.discarded.len()
        );
    }
    let mut all = fixed;
    all.extend(rounds.discarded.iter().chain(&rungs));
    let heavy_lat = verify_heavy(tally, &all, pool);
    if !heavy_lat.is_empty() {
        println!(
            "heavy_p50_ms {:.3} ms over {} heavy requests",
            median(&heavy_lat),
            heavy_lat.len()
        );
    }
    println!(
        "failed_ratio {:.6} ({} of {})",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    let batches = (h2.batch.batches - h1.batch.batches).max(1);
    Ok(ServiceRun {
        warm,
        rounds,
        rungs,
        best_rung,
        setup_s,
        peak_rss_mb,
        hits,
        mean_batch: (h2.batch.requests - h1.batch.requests) as f64 / batches as f64,
        late_p99_ms,
    })
}

fn untraced(args: &Args) -> Result<RunOutput, String> {
    let mut tally = Tally::default();
    let mut v = BTreeMap::new();
    let mut plan = Plan::new(args.workload, args.seed);
    let pool = ThreadPool::new(2);
    // The simulator repetitions run between the service's rounds, while it
    // idles, so their rates sample the same drifting host over the whole
    // run that the service's do.
    let jobs = simbatch::plan(args.seed)?;
    let mut pass = simbatch::SimPass::default();
    let run = service_phases(args, &mut plan, &mut tally, &pool, false, &mut |k| {
        pass.merge(simbatch::run(&jobs, None, k, ROUNDS));
    })?;
    v.insert("setup_s", run.setup_s);
    v.insert("peak_rss_mb", run.peak_rss_mb);
    v.insert("decide_p50_ms", windowed(&run.rounds.base).0);
    v.insert("decide_p50_ms.light", windowed(&run.rounds.light).0);
    check_sim(&mut tally, &jobs, &pass, &pool);
    v.insert("fleet_sessions_per_s", pass.fleet_sessions_per_s());
    v.insert("replay_cells_per_s", pass.replay_cells_per_s());
    v.insert("frontier_evals_per_s", pass.frontier_evals_per_s());
    Ok((tally, v, END_TO_END))
}

fn traced(args: &Args) -> Result<RunOutput, String> {
    let mut tally = Tally::default();
    let mut v = BTreeMap::new();
    let mut plan = Plan::new(args.workload, args.seed);
    let pool = ThreadPool::new(2);

    // The service as deployed: tails, goodput and its own counters.
    let run = service_phases(args, &mut plan, &mut tally, &pool, true, &mut |_| {})?;
    let (_, p99) = windowed(&run.rounds.base);
    v.insert("decide_p99_ms", p99);
    v.insert("decide_p99_ms.light", windowed(&run.rounds.light).1);
    match run.best_rung {
        Some(i) => {
            let b = &run.rungs[i];
            println!(
                "goodput: best passing rung {:.0} req/s ({:.0} req/s served)",
                b.rate,
                b.goodput_rps()
            );
            v.insert("goodput_rps", b.goodput_rps());
        }
        None => {
            // A measured outcome, not a failed operation: on this host the
            // service met the limit at no rate tried, so its goodput at
            // that limit is below the lowest rung.
            println!(
                "goodput: no rung met the {} ms limit; reporting 0",
                args.workload.goodput_limit_ms()
            );
            v.insert("goodput_rps", 0.0);
        }
    }
    v.insert("server.batch.mean_size", run.mean_batch);
    v.insert(
        "server.cache.hit_ratio",
        run.hits.0 as f64 / (run.hits.0 + run.hits.1).max(1) as f64,
    );
    v.insert("gen.late_p99_ms", run.late_p99_ms);
    let mean_size = run.mean_batch;
    let warm = &run.warm;
    let rounds = &run.rounds;

    // The same inputs, in-process, one span per layer call.
    let t = trace::Tracer::default();
    let cases = &rounds.base_cases;
    let bad = layers::decide_path(&t, cases, mean_size, &pool);
    tally.attempted += cases.len() as u64;
    tally.check(
        bad == 0,
        format!("in-process decide path: {bad} bodies differed"),
    );
    let submit_cases = &cases[..cases.len().min(SUBMIT_PROBES)];
    let (submit_us, bad) = layers::submit_probe(&t, submit_cases);
    tally.attempted += submit_cases.len() as u64;
    tally.check(bad == 0, format!("Batcher::submit: {bad} bodies differed"));
    let sequence: Vec<&DecideCase> = warm.cases.iter().chain(cases.iter()).collect();
    let (hits, misses, get_ns) = layers::cache_probe(&t, &sequence);
    v.insert("server.cache.hits", hits as f64);
    v.insert("server.cache.misses", misses as f64);
    v.insert("server.cache.get_ns", get_ns);
    v.insert(
        "core.batch.kernel_ns_per_point",
        layers::kernel_probe(&t, cases),
    );
    let heavy = layers::heavy_probe(&t, &plan.heavy_probes(), &pool);
    for (kind, name) in [
        ("fleet", "server.heavy.fleet_ms"),
        ("simulate", "server.heavy.simulate_ms"),
        ("frontier", "server.heavy.frontier_ms"),
    ] {
        v.insert(name, heavy.get(kind).copied().unwrap_or(f64::NAN));
    }

    // The simulator batch untraced, traced, and untraced again: the traced
    // time over the mean untraced time is the tracing overhead.
    let jobs = simbatch::plan(args.seed)?;
    let pass = simbatch::run(&jobs, None, 0, TRACED_SIM_PARTS);
    let traced_pass = simbatch::run(&jobs, Some(&t), 0, TRACED_SIM_PARTS);
    let again = simbatch::run(&jobs, None, 0, TRACED_SIM_PARTS);
    v.insert(
        "trace.overhead_ratio",
        2.0 * traced_pass.total_s / (pass.total_s + again.total_s),
    );
    let seq_over_par = check_sim(&mut tally, &jobs, &pass, &pool);
    v.insert("loadgen.fleet.events", pass.fleet_events as f64);
    v.insert("loadgen.fleet.events_per_s", median(&pass.event_rates));
    v.insert("loadgen.fleet.seq_over_par", seq_over_par);
    v.insert(
        "loadgen.replay.exact_cells_per_s",
        pass.replay_cells_per_s(),
    );
    v.insert("core.frontier.evaluations", pass.frontier_evals as f64);

    let (spans, counts) = t.finish();
    let times = trace::self_times(&spans);
    // Mean duration and mean self time of the spans named `name`, ns.
    let mean_ns = |name: &str| {
        times.get(name).map_or((f64::NAN, f64::NAN), |l| {
            let n = l.count.max(1) as f64;
            (l.total_ns as f64 / n, l.self_ns as f64 / n)
        })
    };
    let parse = mean_ns("server.http.parse").0;
    let decode = mean_ns("server.api.decode").0;
    let finish = mean_ns("server.api.finish").0;
    let serialize = mean_ns("server.api.serialize").0;
    let points = counts.get("core.decision.points").copied().unwrap_or(0);
    let per_point = times
        .get("core.decision")
        .map_or(f64::NAN, |l| l.total_ns as f64 / points.max(1) as f64);
    let (wave, wave_self) = mean_ns("exec.pool_wave");
    let mut submit_us = submit_us;
    submit_us.sort_by(f64::total_cmp);
    let (s50, s99) = (percentile(&submit_us, 0.5), percentile(&submit_us, 0.99));
    v.insert("server.http.parse_ns", parse);
    v.insert("server.api.decode_ns", decode);
    v.insert("core.decision.ns_per_point", per_point);
    v.insert("server.api.finish_ns", finish);
    v.insert("server.api.serialize_ns", serialize);
    v.insert("exec.pool_wave_us", wave / 1e3);
    v.insert("exec.pool_wave.self_us", wave_self / 1e3);
    v.insert("server.batch.submit_p50_us", s50);
    v.insert("server.batch.submit_p99_us", s99);
    v.insert(
        "server.batch.handoff_us",
        s50 - (per_point + finish + serialize) / 1e3,
    );
    v.insert(
        "server.reactor_us",
        windowed(&rounds.base).0 * 1e3 - s50 - (parse + decode) / 1e3,
    );

    println!("span self times (mean per span):");
    for (name, l) in &times {
        let n = l.count.max(1) as f64;
        println!(
            "  {name:<28} count {:>7}  total {:>12.3} us  self {:>12.3} us",
            l.count,
            l.total_ns as f64 / n / 1e3,
            l.self_ns as f64 / n / 1e3
        );
    }
    for (name, n) in &counts {
        println!("  count {name} = {n}");
    }
    let dir = Path::new(".bench_out");
    let path = dir.join(format!(
        "trace-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    if std::fs::create_dir_all(dir)
        .and_then(|_| trace::write(&path, &spans, &counts))
        .is_ok()
    {
        println!("spans written to {}", path.display());
    }
    Ok((tally, v, PER_LAYER))
}

/// Machine and input identity recorded with every result.
fn fingerprint(seed: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rev = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("none".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        });
    format!(
        "{{\"nproc\": {nproc}, \"git_rev\": \"{rev}\", \"source_digest\": \"{:016x}\", \"copy_gb_s\": {:.2}, \"seed\": {seed}, \"held_out_seed\": {HELD_OUT_SEED}}}",
        source_digest(),
        copy_bandwidth_gb_s()
    )
}

/// FNV-1a over the service's sources (paths and bytes, in sorted order),
/// so a result names the code it measured even outside a git checkout.
fn source_digest() -> u64 {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p
                .extension()
                .is_some_and(|x| x == "rs" || x == "toml" || x == "lock")
            {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for root in ["src", "crates", "Cargo.toml", "Cargo.lock"] {
        let p = Path::new(root);
        if p.is_dir() {
            walk(p, &mut files);
        } else if p.is_file() {
            files.push(p.to_path_buf());
        }
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// A STREAM-style copy probe: best of five 32 MiB copies, GB/s counting
/// the bytes read and written.
fn copy_bandwidth_gb_s() -> f64 {
    const N: usize = 4 << 20;
    let src: Vec<u64> = (0..N as u64).collect();
    let mut dst = vec![0u64; N];
    let best = (0..5)
        .map(|_| {
            let t = Instant::now();
            dst.copy_from_slice(std::hint::black_box(&src));
            std::hint::black_box(&dst);
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    (2 * N * 8) as f64 / best / 1e9
}

/// Keep the result with its fingerprint under `.bench_out/`.
fn save_result(args: &Args, fingerprint: &str, line: &str) {
    let dir = Path::new(".bench_out");
    let path = dir.join(format!(
        "result-{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    let body = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"fingerprint\": {fingerprint}, \"result\": {line}}}\n",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let _ = std::fs::create_dir_all(dir).and_then(|_| std::fs::write(path, body));
}
