//! Request shapes: what a client asks the GW service for.
//!
//! Requests carry *integer-quantized* physics parameters (cutoffs in
//! centi-Ry, energy offsets in milli-Ry) so that two clients asking for
//! "the same thing" produce bit-identical [`KeySpec`] canonical strings —
//! float formatting can never split the cache. The W artifact key
//! ([`GwRequest::w_key`]) covers exactly the inputs that determine the
//! screening (structure + frequency treatment); the request key adds the
//! Sigma-evaluation parameters. Requests sharing a `w_key` coalesce into
//! one batch.

use crate::key::{ArtifactKey, KeySpec};
use bgw_core::service::FfSpec;
use bgw_core::workflow::GwConfig;
use bgw_pwdft::{lih_defect, si_bulk, si_divacancy, ModelSystem};

/// Which model structure a request targets, with quantized parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StructureSpec {
    /// Bulk silicon supercell.
    SiBulk {
        /// Supercell multiplier per axis.
        m: usize,
        /// Wavefunction cutoff in centi-Ry (220 = 2.2 Ry).
        ecut_centi_ry: u32,
        /// Bands to solve.
        n_bands: usize,
    },
    /// Silicon divacancy supercell.
    SiDivacancy {
        /// Supercell multiplier per axis.
        m: usize,
        /// Wavefunction cutoff in centi-Ry.
        ecut_centi_ry: u32,
        /// Bands to solve.
        n_bands: usize,
    },
    /// LiH vacancy-pair defect.
    LihDefect {
        /// Supercell multiplier per axis.
        m: usize,
        /// Wavefunction cutoff in centi-Ry.
        ecut_centi_ry: u32,
        /// Bands to solve.
        n_bands: usize,
    },
}

impl StructureSpec {
    /// Instantiates the model system.
    pub fn system(&self) -> ModelSystem {
        match *self {
            StructureSpec::SiBulk {
                m,
                ecut_centi_ry,
                n_bands,
            } => {
                let mut sys = si_bulk(m, ecut_centi_ry as f64 / 100.0);
                sys.n_bands = n_bands;
                sys
            }
            StructureSpec::SiDivacancy {
                m,
                ecut_centi_ry,
                n_bands,
            } => {
                let mut sys = si_divacancy(m, ecut_centi_ry as f64 / 100.0);
                sys.n_bands = n_bands;
                sys
            }
            StructureSpec::LihDefect {
                m,
                ecut_centi_ry,
                n_bands,
            } => {
                let mut sys = lih_defect(m, ecut_centi_ry as f64 / 100.0);
                sys.n_bands = n_bands;
                sys
            }
        }
    }

    fn key_fields(&self, spec: &mut KeySpec) {
        let (name, m, ecut, nb) = match *self {
            StructureSpec::SiBulk {
                m,
                ecut_centi_ry,
                n_bands,
            } => ("si_bulk", m, ecut_centi_ry, n_bands),
            StructureSpec::SiDivacancy {
                m,
                ecut_centi_ry,
                n_bands,
            } => ("si_divacancy", m, ecut_centi_ry, n_bands),
            StructureSpec::LihDefect {
                m,
                ecut_centi_ry,
                n_bands,
            } => ("lih_defect", m, ecut_centi_ry, n_bands),
        };
        spec.push_str("structure", name);
        spec.push_int("supercell", m as u64);
        spec.push_int("ecut_centi_ry", ecut as u64);
        spec.push_int("n_bands", nb as u64);
    }
}

/// What to evaluate against the structure's screening.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RequestKind {
    /// GPP Sigma diagonals + QP energies on 3-point grids.
    GppDiag {
        /// Bands on each side of the gap.
        bands_around_gap: usize,
        /// Grid offset in milli-Ry (50 = 0.05 Ry).
        delta_milli_ry: u32,
    },
    /// Full-frequency Sigma diagonals on the quadrature screening.
    FullFreq {
        /// Bands on each side of the gap.
        bands_around_gap: usize,
        /// Quadrature nodes for the screening.
        n_quad: usize,
        /// Broadening in milli-Ry.
        eta_milli_ry: u32,
        /// Grid offset in milli-Ry.
        delta_milli_ry: u32,
    },
}

/// One unit of work for the service.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct GwRequest {
    /// Target structure.
    pub structure: StructureSpec,
    /// What to evaluate.
    pub kind: RequestKind,
    /// Scheduling priority: the highest queued one leads the next batch. A
    /// running batch is never interrupted.
    pub priority: u8,
}

/// Bumping this invalidates every stored artifact (key schema change).
const KEY_SCHEMA: u64 = 1;

impl GwRequest {
    /// The canonical W/screening spec: structure plus frequency treatment.
    /// Its digest is [`GwRequest::w_key`]; its canonical string is stored
    /// inside the artifact record and re-checked on every load, so a
    /// 64-bit key collision degrades to a recompute, never a wrong hit.
    pub fn w_spec(&self) -> KeySpec {
        let mut spec = KeySpec::new();
        spec.push_int("v", KEY_SCHEMA);
        self.structure.key_fields(&mut spec);
        match self.kind {
            RequestKind::GppDiag { .. } => {
                spec.push_str("mode", "gpp");
            }
            RequestKind::FullFreq { n_quad, .. } => {
                spec.push_str("mode", "ff");
                spec.push_int("n_quad", n_quad as u64);
            }
        }
        spec
    }

    /// The W/screening artifact key: structure plus frequency treatment.
    /// Requests with equal `w_key` share screening state and coalesce.
    pub fn w_key(&self) -> ArtifactKey {
        self.w_spec().key()
    }

    /// The dispatcher shard owning this request under an `n_shards`-way
    /// split: `w_key % n_shards`. Requests sharing a screening always
    /// land on the same shard, so coalescing and the warm-hit
    /// invariants hold per shard by construction.
    pub fn shard_of(&self, n_shards: usize) -> usize {
        (self.w_key().0 % n_shards.max(1) as u64) as usize
    }

    /// The full request key: `w_key` inputs plus the Sigma-evaluation
    /// parameters (band window, grid offset, broadening).
    pub fn request_key(&self) -> ArtifactKey {
        let mut spec = KeySpec::new();
        spec.push_int("v", KEY_SCHEMA);
        self.structure.key_fields(&mut spec);
        match self.kind {
            RequestKind::GppDiag {
                bands_around_gap,
                delta_milli_ry,
            } => {
                spec.push_str("mode", "gpp");
                spec.push_int("bands_around_gap", bands_around_gap as u64);
                spec.push_int("delta_milli_ry", delta_milli_ry as u64);
            }
            RequestKind::FullFreq {
                bands_around_gap,
                n_quad,
                eta_milli_ry,
                delta_milli_ry,
            } => {
                spec.push_str("mode", "ff");
                spec.push_int("n_quad", n_quad as u64);
                spec.push_int("bands_around_gap", bands_around_gap as u64);
                spec.push_int("eta_milli_ry", eta_milli_ry as u64);
                spec.push_int("delta_milli_ry", delta_milli_ry as u64);
            }
        }
        spec.key()
    }

    /// The full-frequency screening spec, when this is an FF request.
    pub fn ff_spec(&self) -> Option<FfSpec> {
        match self.kind {
            RequestKind::GppDiag { .. } => None,
            RequestKind::FullFreq { n_quad, .. } => Some(FfSpec { n_quad }),
        }
    }

    /// Grid offset in Ry.
    pub fn delta_ry(&self) -> f64 {
        let m = match self.kind {
            RequestKind::GppDiag { delta_milli_ry, .. } => delta_milli_ry,
            RequestKind::FullFreq { delta_milli_ry, .. } => delta_milli_ry,
        };
        m as f64 / 1000.0
    }

    /// Grid offset in milli-Ry (the quantized coalescing unit).
    pub fn delta_milli_ry(&self) -> u32 {
        match self.kind {
            RequestKind::GppDiag { delta_milli_ry, .. } => delta_milli_ry,
            RequestKind::FullFreq { delta_milli_ry, .. } => delta_milli_ry,
        }
    }

    /// Broadening in Ry (FF requests).
    pub fn eta_ry(&self) -> f64 {
        match self.kind {
            RequestKind::GppDiag { .. } => 0.0,
            RequestKind::FullFreq { eta_milli_ry, .. } => eta_milli_ry as f64 / 1000.0,
        }
    }

    /// Bands on each side of the gap.
    pub fn bands_around_gap(&self) -> usize {
        match self.kind {
            RequestKind::GppDiag {
                bands_around_gap, ..
            } => bands_around_gap,
            RequestKind::FullFreq {
                bands_around_gap, ..
            } => bands_around_gap,
        }
    }

    /// The Sigma band list for this request against a solved system —
    /// exactly the one-shot drivers' window `nv-k .. nv+k` (clamped).
    pub fn bands(&self, n_valence: usize, n_bands: usize) -> Vec<usize> {
        bgw_core::bands_around_gap(n_valence, n_bands, self.bands_around_gap().max(1))
    }

    /// The [`GwConfig`] whose one-shot run this request must reproduce.
    pub fn gw_config(&self) -> GwConfig {
        GwConfig {
            bands_around_gap: self.bands_around_gap(),
            sampling_delta_ry: self.delta_ry(),
            ..GwConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn si(nb: usize) -> StructureSpec {
        StructureSpec::SiBulk {
            m: 1,
            ecut_centi_ry: 220,
            n_bands: nb,
        }
    }

    #[test]
    fn w_key_ignores_sigma_params_but_request_key_does_not() {
        let a = GwRequest {
            structure: si(24),
            kind: RequestKind::GppDiag {
                bands_around_gap: 1,
                delta_milli_ry: 50,
            },
            priority: 0,
        };
        let b = GwRequest {
            structure: si(24),
            kind: RequestKind::GppDiag {
                bands_around_gap: 2,
                delta_milli_ry: 40,
            },
            priority: 3,
        };
        assert_eq!(a.w_key(), b.w_key(), "same W, different Sigma windows");
        assert_ne!(a.request_key(), b.request_key());
    }

    #[test]
    fn structure_and_mode_perturbations_change_w_key() {
        let base = GwRequest {
            structure: si(24),
            kind: RequestKind::GppDiag {
                bands_around_gap: 1,
                delta_milli_ry: 50,
            },
            priority: 0,
        };
        let other_bands = GwRequest {
            structure: si(28),
            ..base
        };
        assert_ne!(base.w_key(), other_bands.w_key());
        let ff = GwRequest {
            kind: RequestKind::FullFreq {
                bands_around_gap: 1,
                n_quad: 8,
                eta_milli_ry: 50,
                delta_milli_ry: 50,
            },
            ..base
        };
        assert_ne!(base.w_key(), ff.w_key(), "gpp vs ff screening differ");
        let ff2 = GwRequest {
            kind: RequestKind::FullFreq {
                bands_around_gap: 1,
                n_quad: 10,
                eta_milli_ry: 50,
                delta_milli_ry: 50,
            },
            ..base
        };
        assert_ne!(ff.w_key(), ff2.w_key(), "quadrature size is a W input");
    }

    #[test]
    fn band_window_matches_oneshot_driver() {
        let req = GwRequest {
            structure: si(24),
            kind: RequestKind::GppDiag {
                bands_around_gap: 2,
                delta_milli_ry: 50,
            },
            priority: 0,
        };
        assert_eq!(req.bands(16, 24), vec![14, 15, 16, 17]);
        // Clamped at both ends.
        assert_eq!(req.bands(1, 2), vec![0, 1]);
        let cfg = req.gw_config();
        assert_eq!(cfg.bands_around_gap, 2);
        assert_eq!(cfg.sampling_delta_ry, 0.05);
    }
}
