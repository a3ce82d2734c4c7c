//! The traced run's in-process probes: the seeded inputs replayed through
//! each layer's public calls, one span per call.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use sss_core::{decide_batch, BatchEvaluator, ModelParams, ParamsBatch};
use sss_exec::ThreadPool;
use sss_server::api::{
    DecideRequest, DecideResponse, FleetRequest, FrontierRequest, SimulateRequest,
};
use sss_server::batch::Batcher;
use sss_server::cache::{CacheKey, DecisionCache};
use sss_server::http::Parser;

use crate::gen::{DecideCase, HeavyCase, HeavyKind};
use crate::stats::median;
use crate::trace::Tracer;

/// Replay `cases` through parse → decode → batched decide → finish and
/// serialize on the pool, in waves whose sizes average `mean_batch` (the
/// service's observed mean), the way its batch wave processes them.
/// Returns the bodies that differed from the expected ones.
pub fn decide_path(t: &Tracer, cases: &[DecideCase], mean_batch: f64, pool: &ThreadPool) -> usize {
    let mut mismatches = 0;
    let mut start = 0;
    let mut waves = 0.0;
    while start < cases.len() {
        waves += 1.0;
        let end = ((waves * mean_batch.max(1.0)).round() as usize).clamp(start + 1, cases.len());
        let wave_cases = &cases[start..end];
        let mut decoded = Vec::with_capacity(wave_cases.len());
        let mut params = Vec::with_capacity(wave_cases.len());
        for (i, case) in wave_cases.iter().enumerate() {
            let rid = (start + i) as u64;
            let root = t.id();
            let p = t.span_with(root, "request", None, Some(rid), || {
                let request = t.span("server.http.parse", Some(root), Some(rid), || {
                    Parser::new().push(&case.wire).ok().and_then(|(_, r)| r)
                })?;
                t.span("server.api.decode", Some(root), Some(rid), || {
                    let text = std::str::from_utf8(&request.body).ok()?;
                    serde_json::from_str::<DecideRequest>(text)
                        .ok()?
                        .params()
                        .ok()
                })
            });
            match p {
                Some(p) => {
                    decoded.push(case);
                    params.push(p);
                }
                None => mismatches += 1,
            }
        }
        t.count("core.decision.points", params.len() as u64);
        let reports = t.span("core.decision", None, None, || decide_batch(&params));
        let items: Vec<_> = params.iter().zip(reports).collect();
        let wave = t.id();
        let bodies = t.span_with(wave, "exec.pool_wave", None, None, || {
            pool.map(&items, |(p, report)| {
                let response = t.span("server.api.finish", Some(wave), None, || {
                    DecideResponse::from_report(p, report.clone())
                });
                t.span("server.api.serialize", Some(wave), None, || {
                    serde_json::to_string(&response).ok()
                })
            })
        });
        for (body, case) in bodies.iter().zip(decoded) {
            if body.as_deref() != Some(&*case.expect) {
                mismatches += 1;
            }
        }
        start = end;
    }
    mismatches
}

/// `Batcher::submit` from two closed-loop threads with caching off; each
/// call is a span. Returns the per-call latencies in µs and mismatches.
pub fn submit_probe(t: &Tracer, cases: &[DecideCase]) -> (Vec<f64>, usize) {
    let batcher = Batcher::new(Arc::new(DecisionCache::new(0)), 2, 32);
    let results: Vec<(Vec<f64>, usize)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|k| {
                let batcher = &batcher;
                s.spawn(move || {
                    let mut lat = Vec::new();
                    let mut bad = 0;
                    for case in cases.iter().skip(k).step_by(2) {
                        let start = Instant::now();
                        let body = t.span("server.batch.submit", None, None, || {
                            batcher.submit(case.params)
                        });
                        lat.push(start.elapsed().as_secs_f64() * 1e6);
                        if body.ok().as_deref() != Some(&*case.expect) {
                            bad += 1;
                        }
                    }
                    (lat, bad)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("submit probe thread panicked"))
            .collect()
    });
    let mut lat = Vec::new();
    let mut bad = 0;
    for (l, b) in results {
        lat.extend(l);
        bad += b;
    }
    (lat, bad)
}

/// Replay a key sequence through `DecisionCache::get`, inserting on a
/// miss as the batch wave does. Returns (hits, misses, ns per get).
pub fn cache_probe(t: &Tracer, sequence: &[&DecideCase]) -> (u64, u64, f64) {
    let keys: Vec<CacheKey> = sequence.iter().map(|c| CacheKey::of(&c.params)).collect();
    let cache = DecisionCache::new(4096);
    let start = Instant::now();
    t.span("server.cache.replay", None, None, || {
        for (key, case) in keys.iter().zip(sequence) {
            if std::hint::black_box(cache.get(key)).is_none() {
                cache.insert(*key, case.expect.clone());
            }
        }
    });
    let ns = start.elapsed().as_nanos() as f64 / keys.len().max(1) as f64;
    let stats = cache.stats();
    t.count("server.cache.hits", stats.hits);
    t.count("server.cache.misses", stats.misses);
    (stats.hits, stats.misses, ns)
}

/// `BatchEvaluator::t_pct_into` over a million points; ns per point,
/// median of five sweeps.
pub fn kernel_probe(t: &Tracer, cases: &[DecideCase]) -> f64 {
    const POINTS: usize = 1 << 20;
    let params: Vec<ModelParams> = cases
        .iter()
        .map(|c| c.params)
        .cycle()
        .take(POINTS)
        .collect();
    let batch = ParamsBatch::from_params(&params);
    let mut out = vec![0.0; POINTS];
    let sweeps: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            t.span("core.batch.t_pct_into", None, None, || {
                BatchEvaluator.t_pct_into(batch.view(), std::hint::black_box(&mut out));
            });
            start.elapsed().as_nanos() as f64 / POINTS as f64
        })
        .collect();
    std::hint::black_box(&out);
    median(&sweeps)
}

/// Each heavy request decoded, validated, run on the pool and serialized,
/// as the service's handler does; median ms per kind.
pub fn heavy_probe(
    t: &Tracer,
    cases: &[HeavyCase],
    pool: &ThreadPool,
) -> BTreeMap<&'static str, f64> {
    let mut times: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for case in cases {
        let start = Instant::now();
        let name = match case.kind {
            HeavyKind::Fleet => "server.heavy.fleet",
            HeavyKind::Simulate => "server.heavy.simulate",
            HeavyKind::Frontier => "server.heavy.frontier",
        };
        t.span(name, None, None, || heavy_body(case, pool));
        times
            .entry(case.kind.label())
            .or_default()
            .push(start.elapsed().as_secs_f64() * 1e3);
    }
    times.into_iter().map(|(k, v)| (k, median(&v))).collect()
}

/// The library's own serialization of a heavy request's answer — the
/// bytes the service must have sent.
pub fn heavy_body(case: &HeavyCase, pool: &ThreadPool) -> Option<String> {
    match case.kind {
        HeavyKind::Fleet => {
            let r: FleetRequest = serde_json::from_str(&case.body).ok()?;
            serde_json::to_string(
                &r.fleet(FleetRequest::DEFAULT_SESSION_CAP)
                    .ok()?
                    .run(pool)
                    .ok()?,
            )
            .ok()
        }
        HeavyKind::Simulate => {
            let r: SimulateRequest = serde_json::from_str(&case.body).ok()?;
            serde_json::to_string(&r.replay().ok()?.run(pool)).ok()
        }
        HeavyKind::Frontier => {
            let r: FrontierRequest = serde_json::from_str(&case.body).ok()?;
            serde_json::to_string(&r.job().ok()?.run(pool)).ok()
        }
    }
}
