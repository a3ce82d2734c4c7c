//! The offline simulator batch: a fixed job list that mirrors the
//! `fleet`, `simulate` and `frontier` CLIs, run in-process.
//!
//! The timed repetitions run each job on one thread (`run_sequential`): a
//! shared host that intermittently withholds the second vCPU would
//! otherwise halve a pooled rate at random. The two-worker `ThreadPool`
//! runs are byte-compared against them in [`verify`], which also times
//! them for `loadgen.fleet.seq_over_par`. Rates are medians over the
//! repetitions, and the repetitions can be spread over a run in parts.

use std::time::Instant;

use sss_core::frontier::{Axis, FrontierSpec};
use sss_core::Scenario;
use sss_exec::ThreadPool;
use sss_loadgen::{
    AdmissionPolicy, FleetConfig, FleetSim, FrontierJob, ReplayConfig, SessionReplay,
    STEADY_TOLERANCE,
};
use sss_sim::{Fidelity, TraceShape};

use crate::gen::Rng;
use crate::stats::median;
use crate::trace::Tracer;

/// Sessions per fleet job.
pub const FLEET_SESSIONS: u32 = 5000;
/// Fleet jobs, one seed each.
pub const FLEET_RUNS: usize = 36;
/// Frames per replay cell.
pub const REPLAY_FRAMES: u32 = 4096;
/// Whole-catalog exact replays (13 scenarios × 4 shapes each).
pub const REPLAY_RUNS: usize = 72;
/// Whole-catalog 3-D frontier sweeps.
pub const FRONTIER_RUNS: usize = 36;

/// The planned jobs.
pub struct SimJobs {
    fleets: Vec<FleetSim>,
    replay: SessionReplay,
    frontiers: Vec<FrontierJob>,
}

/// Build every job's plan from the seed.
pub fn plan(seed: u64) -> Result<SimJobs, String> {
    let mut rng = Rng::stream(seed, "sim-batch");
    let fleets = (0..FLEET_RUNS)
        .map(|_| {
            FleetSim::bundled(FleetConfig {
                sessions: FLEET_SESSIONS,
                shape: TraceShape::Bursty,
                policy: AdmissionPolicy::FairShare,
                ..FleetConfig::standard(rng.next_u64())
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    let replay = SessionReplay::bundled(ReplayConfig {
        frames: REPLAY_FRAMES,
        files: 16,
        shapes: TraceShape::ALL.to_vec(),
        seed: rng.next_u64(),
        fidelity: Fidelity::Exact,
    })?;
    let frontiers = Scenario::all()
        .iter()
        .map(|s| {
            let mut spec = FrontierSpec::new(
                Axis::parse("wan_gbps:1:1000:log")?,
                Axis::parse("data_gb:0.1:100:log")?,
            );
            spec.z = Some(Axis::parse("alpha:0.1:1")?);
            spec.slices = 8;
            spec.resolution = 128;
            FrontierJob::new(s.params, spec)
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(SimJobs {
        fleets,
        replay,
        frontiers,
    })
}

/// What some repetitions did and took.
#[derive(Debug, Clone, Default)]
pub struct SimPass {
    /// Wall time of the repetitions, s.
    pub total_s: f64,
    /// Allocation-integrator events across the fleet jobs.
    pub fleet_events: u64,
    /// Model evaluations across the frontier sweeps.
    pub frontier_evals: u64,
    /// Fleet jobs that returned an error.
    pub errors: u64,
    /// Sessions per second of each fleet job.
    pub fleet_rates: Vec<f64>,
    /// Events per second of each fleet job.
    pub event_rates: Vec<f64>,
    /// Cells per second of each whole-catalog replay.
    pub replay_rates: Vec<f64>,
    /// Evaluations per second of each whole-catalog frontier sweep.
    pub frontier_rates: Vec<f64>,
}

impl SimPass {
    /// Fold another part's repetitions into this one.
    pub fn merge(&mut self, other: SimPass) {
        self.total_s += other.total_s;
        self.fleet_events += other.fleet_events;
        self.frontier_evals += other.frontier_evals;
        self.errors += other.errors;
        self.fleet_rates.extend(other.fleet_rates);
        self.event_rates.extend(other.event_rates);
        self.replay_rates.extend(other.replay_rates);
        self.frontier_rates.extend(other.frontier_rates);
    }

    /// Median sessions per second.
    pub fn fleet_sessions_per_s(&self) -> f64 {
        median(&self.fleet_rates)
    }

    /// Median replay cells per second.
    pub fn replay_cells_per_s(&self) -> f64 {
        median(&self.replay_rates)
    }

    /// Median frontier evaluations per second.
    pub fn frontier_evals_per_s(&self) -> f64 {
        median(&self.frontier_rates)
    }
}

/// Run part `part` of `parts` of the repetitions (every repetition whose
/// index is `part` modulo `parts`) on this thread, recording a span per
/// job when `tracer` is given.
pub fn run(jobs: &SimJobs, tracer: Option<&Tracer>, part: usize, parts: usize) -> SimPass {
    let mut pass = SimPass::default();
    let mine = |i: usize| i % parts == part;
    let timed = |name: &'static str, f: &mut dyn FnMut()| -> f64 {
        let t = Instant::now();
        match tracer {
            Some(tr) => tr.span(name, None, None, f),
            None => f(),
        }
        t.elapsed().as_secs_f64()
    };
    let start = Instant::now();
    for (_, fleet) in jobs.fleets.iter().enumerate().filter(|(i, _)| mine(*i)) {
        let mut done = None;
        let secs = timed("loadgen.fleet.run", &mut || {
            done = fleet.run_sequential().ok()
        });
        match done {
            Some(r) => {
                pass.fleet_events += r.events;
                pass.fleet_rates.push(r.records.len() as f64 / secs);
                pass.event_rates.push(r.events as f64 / secs);
            }
            None => pass.errors += 1,
        }
    }
    for _ in (0..REPLAY_RUNS).filter(|&i| mine(i)) {
        let mut cells = 0;
        let secs = timed("loadgen.replay.run", &mut || {
            cells = jobs.replay.run_sequential().records.len();
        });
        pass.replay_rates.push(cells as f64 / secs);
    }
    for _ in (0..FRONTIER_RUNS).filter(|&i| mine(i)) {
        let mut evals = 0;
        let secs = timed("loadgen.frontier.sweep", &mut || {
            for job in &jobs.frontiers {
                evals += job.run_sequential().evaluations;
            }
        });
        pass.frontier_evals += evals;
        pass.frontier_rates.push(evals as f64 / secs);
    }
    pass.total_s = start.elapsed().as_secs_f64();
    if let Some(tr) = tracer {
        tr.count("loadgen.fleet.events", pass.fleet_events);
        tr.count("core.frontier.evaluations", pass.frontier_evals);
    }
    pass
}

/// Output checks: pool and sequential runs are byte-equal for one fleet,
/// one frontier and the replay, and exact replay reproduces the closed
/// form on the steady trace. Returns the failed checks and the fleet's
/// sequential-over-pool time ratio.
pub fn verify(jobs: &SimJobs, pool: &ThreadPool) -> (Vec<String>, f64) {
    let mut failed = Vec::new();
    let fleet = &jobs.fleets[0];
    let t = Instant::now();
    let par = fleet.run(pool).map(|r| serde_json::to_string(&r).ok());
    let par_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let seq = fleet
        .run_sequential()
        .map(|r| serde_json::to_string(&r).ok());
    let seq_s = t.elapsed().as_secs_f64();
    if par != seq || !matches!(par, Ok(Some(_))) {
        failed.push("fleet: pool and sequential runs differ".to_string());
    }
    let job = &jobs.frontiers[0];
    if serde_json::to_string(&job.run(pool)).ok()
        != serde_json::to_string(&job.run_sequential()).ok()
    {
        failed.push("frontier: pool and sequential maps differ".to_string());
    }
    let report = jobs.replay.run(pool);
    if serde_json::to_string(&report).ok()
        != serde_json::to_string(&jobs.replay.run_sequential()).ok()
    {
        failed.push("replay: pool and sequential reports differ".to_string());
    }
    let steady: Vec<_> = report
        .records
        .iter()
        .filter(|r| r.shape == TraceShape::Steady)
        .collect();
    if steady.is_empty()
        || steady
            .iter()
            .any(|r| r.t_pct_rel_err.is_nan() || r.t_pct_rel_err > STEADY_TOLERANCE || !r.agree)
    {
        failed.push("replay: exact steady trace strays from the closed form".to_string());
    }
    (failed, seq_s / par_s)
}
