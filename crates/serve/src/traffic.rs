//! Seeded synthetic traffic: a zipf-distributed request stream over a
//! small structure catalog, shared by the replay tests and the gwbench
//! serve workloads so both drive the engine with the same shapes.
//!
//! The stream is a pure function of [`TrafficConfig`]: same config, same
//! byte-identical `Vec<GwRequest>`. Structure popularity follows
//! `p(i) ~ 1/(i+1)^s` over the catalog, so low-index structures repeat
//! heavily (cache hits, coalescing) while the tail stays cold (misses).

use crate::request::{GwRequest, RequestKind, StructureSpec};
use bgw_num::Xoshiro256StarStar;

/// Seeded traffic-stream parameters.
#[derive(Clone, Debug)]
pub struct TrafficConfig {
    /// RNG seed; the stream is a pure function of this config.
    pub seed: u64,
    /// Requests to generate.
    pub n_requests: usize,
    /// Zipf exponent over the structure catalog (larger = more skew).
    pub zipf_exponent: f64,
    /// Structure catalog, most-popular first.
    pub structures: Vec<StructureSpec>,
    /// Probability a request is full-frequency instead of GPP.
    pub ff_fraction: f64,
    /// Probability a request carries elevated priority, which moves it
    /// to the front of its shard's queue for the next batch.
    pub high_priority_fraction: f64,
}

impl TrafficConfig {
    /// A small default catalog: three structures, popularity-ordered.
    pub fn small(seed: u64, n_requests: usize) -> Self {
        Self {
            seed,
            n_requests,
            zipf_exponent: 1.1,
            structures: vec![
                StructureSpec::SiBulk {
                    m: 1,
                    ecut_centi_ry: 220,
                    n_bands: 24,
                },
                StructureSpec::SiDivacancy {
                    m: 1,
                    ecut_centi_ry: 200,
                    n_bands: 24,
                },
                StructureSpec::LihDefect {
                    m: 1,
                    ecut_centi_ry: 240,
                    n_bands: 20,
                },
            ],
            ff_fraction: 0.2,
            high_priority_fraction: 0.1,
        }
    }
}

/// Generates the deterministic zipf request stream for `cfg`.
pub fn zipf_stream(cfg: &TrafficConfig) -> Vec<GwRequest> {
    assert!(!cfg.structures.is_empty(), "empty structure catalog");
    let mut rng = Xoshiro256StarStar::seed_from_u64(cfg.seed);
    // Zipf CDF over the catalog.
    let weights: Vec<f64> = (0..cfg.structures.len())
        .map(|i| 1.0 / ((i + 1) as f64).powf(cfg.zipf_exponent))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(weights.len());
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total;
        cdf.push(acc);
    }

    let mut out = Vec::with_capacity(cfg.n_requests);
    for _ in 0..cfg.n_requests {
        let u = rng.next_f64();
        let idx = cdf.iter().position(|&c| u < c).unwrap_or(cdf.len() - 1);
        let structure = cfg.structures[idx];
        // A few discrete Sigma shapes so identical-W requests still
        // exercise distinct request keys and (band, delta) rows.
        let bands_around_gap = 1 + (rng.next_u64() % 2) as usize;
        let delta_milli_ry = [40u32, 50][(rng.next_u64() % 2) as usize];
        let kind = if rng.next_f64() < cfg.ff_fraction {
            RequestKind::FullFreq {
                bands_around_gap,
                n_quad: 6,
                eta_milli_ry: 50,
                delta_milli_ry,
            }
        } else {
            RequestKind::GppDiag {
                bands_around_gap,
                delta_milli_ry,
            }
        };
        let priority = if rng.next_f64() < cfg.high_priority_fraction {
            3
        } else {
            0
        };
        out.push(GwRequest {
            structure,
            kind,
            priority,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_deterministic_and_zipf_skewed() {
        let cfg = TrafficConfig::small(7, 400);
        let a = zipf_stream(&cfg);
        let b = zipf_stream(&cfg);
        assert_eq!(a, b, "same config must give the identical stream");
        assert_eq!(a.len(), 400);
        let head = cfg.structures[0];
        let n_head = a.iter().filter(|r| r.structure == head).count();
        let tail = cfg.structures[cfg.structures.len() - 1];
        let n_tail = a.iter().filter(|r| r.structure == tail).count();
        assert!(
            n_head > n_tail,
            "zipf skew: head {n_head} should beat tail {n_tail}"
        );
        assert!(a
            .iter()
            .any(|r| matches!(r.kind, RequestKind::FullFreq { .. })));
        assert!(a.iter().any(|r| r.priority > 0));
    }

    #[test]
    fn different_seed_changes_the_stream() {
        let a = zipf_stream(&TrafficConfig::small(1, 100));
        let b = zipf_stream(&TrafficConfig::small(2, 100));
        assert_ne!(a, b);
    }
}
