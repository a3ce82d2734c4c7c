//! Seeded workload generation: arrival schedules and request bodies.
//!
//! Every input a run sends is a pure function of the `--seed` and of the
//! phase it belongs to, so the same seed replays byte-identical traffic
//! and the traced run can re-drive the exact bodies the untraced run sent.

use std::collections::HashSet;
use std::sync::Arc;

use sss_core::{ModelParams, Scenario};
use sss_server::api::{
    DecideRequest, DecideResponse, FleetRequest, FrontierRequest, SimulateRequest,
};
use sss_server::cache::CacheKey;
use sss_sim::TraceShape;

/// SplitMix64: a tiny, well-mixed generator whose streams are cheap to
/// derive by label.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The stream for `label` under `seed`: distinct labels give
    /// independent-looking streams, identical pairs identical streams.
    pub fn stream(seed: u64, label: &str) -> Rng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        let mut rng = Rng(seed ^ h.rotate_left(17));
        rng.next_u64();
        rng
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    /// An exponential inter-arrival gap for a Poisson process at `rate`
    /// events per second, in nanoseconds.
    pub fn exp_gap_ns(&mut self, rate: f64) -> u64 {
        let u = 1.0 - self.unit();
        (-u.ln() / rate * 1e9) as u64
    }
}

/// Poisson arrival instants (ns from phase start) over `seconds` at `rate`.
pub fn poisson_schedule(rng: &mut Rng, rate: f64, seconds: f64) -> Vec<u64> {
    let horizon = (seconds * 1e9) as u64;
    let mut out = Vec::with_capacity((rate * seconds * 1.1) as usize + 16);
    let mut t = rng.exp_gap_ns(rate);
    while t < horizon {
        out.push(t);
        t += rng.exp_gap_ns(rate).max(1);
    }
    out
}

/// A `/decide` body with the response the service must return for it.
#[derive(Debug, Clone)]
pub struct DecideCase {
    /// The wire request, headers included.
    pub wire: Arc<[u8]>,
    /// The JSON body alone (what the in-process replay parses).
    pub body: Arc<str>,
    /// The parameters the service decodes from `body`.
    pub params: ModelParams,
    /// `serde_json::to_string(&DecideResponse::evaluate(&params))`.
    pub expect: Arc<str>,
}

/// Frame a JSON body as one keep-alive HTTP/1.1 request.
pub fn wire(path: &str, body: &str) -> Arc<[u8]> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
    .into()
}

/// A catalog scenario perturbed beyond the cache's 9-significant-digit
/// key; `seen` guarantees no two generated workloads share a cache entry.
pub fn unique_decide(
    rng: &mut Rng,
    catalog: &[Scenario],
    seen: &mut HashSet<CacheKey>,
) -> DecideCase {
    loop {
        let s = &catalog[rng.below(catalog.len())];
        let mut r = DecideRequest::from_params(&s.params);
        r.data_gb *= rng.range(0.7, 1.3);
        r.bandwidth_gbps *= rng.range(0.7, 1.3);
        r.remote_tflops *= rng.range(0.7, 1.3);
        r.alpha = (r.alpha * rng.range(0.6, 1.0)).clamp(0.01, 1.0);
        let body = serde_json::to_string(&r).expect("decide request serializes");
        // Key and answer come from the body as the service will parse it.
        let Ok(parsed) = serde_json::from_str::<DecideRequest>(&body) else {
            continue;
        };
        let Ok(params) = parsed.params() else {
            continue;
        };
        if !seen.insert(CacheKey::of(&params)) {
            continue;
        }
        let expect = serde_json::to_string(&DecideResponse::evaluate(&params))
            .expect("decide response serializes");
        return DecideCase {
            wire: wire("/decide", &body),
            body: body.into(),
            params,
            expect: expect.into(),
        };
    }
}

/// The kinds of heavy request the hot-heavy workload trickles in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeavyKind {
    /// `POST /fleet`: 512 bursty fair-share sessions.
    Fleet,
    /// `POST /simulate`: all four shapes at 1024 frames.
    Simulate,
    /// `POST /frontier`: resolution 64.
    Frontier,
}

impl HeavyKind {
    /// The route the request is sent to.
    pub fn path(self) -> &'static str {
        match self {
            HeavyKind::Fleet => "/fleet",
            HeavyKind::Simulate => "/simulate",
            HeavyKind::Frontier => "/frontier",
        }
    }

    /// Span and metric label.
    pub fn label(self) -> &'static str {
        match self {
            HeavyKind::Fleet => "fleet",
            HeavyKind::Simulate => "simulate",
            HeavyKind::Frontier => "frontier",
        }
    }
}

/// One heavy request; its expected body is computed after the timed
/// window by the library itself.
#[derive(Debug, Clone)]
pub struct HeavyCase {
    /// Which route.
    pub kind: HeavyKind,
    /// The JSON body.
    pub body: Arc<str>,
    /// The wire request.
    pub wire: Arc<[u8]>,
}

/// Draw one heavy request, 3:1:1 fleet/simulate/frontier.
pub fn heavy_case(
    rng: &mut Rng,
    catalog: &[Scenario],
    seen: &mut HashSet<CacheKey>,
    serial: u64,
) -> HeavyCase {
    let u = rng.unit();
    let kind = if u < 0.6 {
        HeavyKind::Fleet
    } else if u < 0.8 {
        HeavyKind::Simulate
    } else {
        HeavyKind::Frontier
    };
    heavy_of_kind(kind, rng, catalog, seen, serial)
}

/// One heavy request of `kind`, with a unique seed or base workload so it
/// misses its response cache.
pub fn heavy_of_kind(
    kind: HeavyKind,
    rng: &mut Rng,
    catalog: &[Scenario],
    seen: &mut HashSet<CacheKey>,
    serial: u64,
) -> HeavyCase {
    let body = match kind {
        HeavyKind::Fleet => serde_json::to_string(&FleetRequest {
            sessions: 512,
            shape: "bursty".into(),
            policy: "fair-share".into(),
            seed: (rng.next_u64() & 0xffff_ffff_0000_0000) | serial,
            ..FleetRequest::default()
        }),
        HeavyKind::Simulate => {
            let workload = workload_of(&unique_decide(rng, catalog, seen));
            serde_json::to_string(&SimulateRequest {
                workload,
                shapes: TraceShape::ALL
                    .iter()
                    .map(|s| s.label().to_string())
                    .collect(),
                frames: 1024,
                files: 16,
                seed: 42,
                fidelity: "exact".into(),
            })
        }
        HeavyKind::Frontier => {
            let workload = workload_of(&unique_decide(rng, catalog, seen));
            serde_json::to_string(&FrontierRequest {
                workload,
                x: "wan_gbps:1:400".into(),
                y: "data_tb:0.1:100".into(),
                z: None,
                resolution: 64,
                tolerance: 1e-3,
                slices: 3,
            })
        }
    }
    .expect("heavy request serializes");
    HeavyCase {
        kind,
        wire: wire(kind.path(), &body),
        body: body.into(),
    }
}

fn workload_of(case: &DecideCase) -> DecideRequest {
    serde_json::from_str(&case.body).expect("generated body parses")
}

/// Zipf(s) over ranks `1..=n`, sampled by inverting the CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution with exponent `s` over `n` ranks.
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += (k as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// A rank index in `0..n`.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(seed: u64) -> (Vec<u64>, Vec<Arc<str>>) {
        let catalog = Scenario::all();
        let mut rng = Rng::stream(seed, "base");
        let times = poisson_schedule(&mut rng, 2000.0, 0.2);
        let mut seen = HashSet::new();
        let bodies = times
            .iter()
            .map(|_| unique_decide(&mut rng, &catalog, &mut seen).body)
            .collect();
        (times, bodies)
    }

    #[test]
    fn same_seed_same_schedule_and_bodies() {
        assert_eq!(phase(7), phase(7));
    }

    #[test]
    fn different_seed_changes_schedule_and_bodies() {
        let (ta, ba) = phase(7);
        let (tb, bb) = phase(8);
        assert_ne!(ta, tb);
        assert_ne!(ba, bb);
    }

    #[test]
    fn poisson_rate_is_close() {
        let mut rng = Rng::stream(1, "rate");
        let n = poisson_schedule(&mut rng, 5000.0, 2.0).len() as f64;
        assert!((n / 10_000.0 - 1.0).abs() < 0.05, "{n}");
    }

    #[test]
    fn heavy_mix_and_zipf_are_seeded() {
        let catalog = Scenario::all();
        let draw = |seed| {
            let mut rng = Rng::stream(seed, "heavy");
            let mut seen = HashSet::new();
            (0..20)
                .map(|i| heavy_case(&mut rng, &catalog, &mut seen, i).body)
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
        let z = Zipf::new(1024, 1.1);
        let mut rng = Rng::stream(5, "zipf");
        let top = (0..10_000).filter(|_| z.sample(&mut rng) == 0).count();
        assert!(top > 1000, "rank 1 should dominate, got {top}");
    }
}
