//! Stable content fingerprints for plan-cache keys.
//!
//! A sweep service that caches frozen [`crate::SimPlan`]s needs a key
//! that is a pure function of *what the plan computes*: the builder's
//! inputs and the [`SimConfig`] — minus the knobs that provably cannot
//! change reported results. [`Fingerprint`] is the hasher those keys are
//! built from: an explicitly seeded FNV-1a accumulator, deterministic
//! across processes, platforms, and reruns (`std::hash::DefaultHasher`
//! is randomly keyed per process and would silently break cross-run
//! cache-counter pinning).
//!
//! Every `push_*` method is length- or width-prefixed where ambiguity is
//! possible (`push_str`, `push_bytes`), so `"ab" + "c"` and `"a" + "bc"`
//! fold differently.
//!
//! [`Fingerprint::push_token`] folds stream data — the per-run source
//! streams that key the report cache — structurally: a tag per variant,
//! then its fields, with every variable-length part length-prefixed.
//! Nothing is formatted, so keying a binding costs a pass over its
//! bytes rather than a `Debug` render of every token.

use crate::config::SimConfig;
use std::fmt::Write as _;
use step_core::elem::Elem;
use step_core::token::Token;

/// An explicitly seeded FNV-1a accumulator for plan-cache keys.
///
/// ```
/// use step_sim::Fingerprint;
/// let mut a = Fingerprint::new("moe");
/// a.push_u64(64);
/// let mut b = Fingerprint::new("moe");
/// b.push_u64(64);
/// assert_eq!(a.finish(), b.finish());
/// let mut c = Fingerprint::new("moe");
/// c.push_u64(65);
/// assert_ne!(a.finish(), c.finish());
/// ```
#[derive(Debug, Clone)]
pub struct Fingerprint {
    state: u64,
    /// Scratch for `push_debug` — reused so repeated pushes don't
    /// reallocate.
    scratch: String,
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

impl Fingerprint {
    /// A fresh accumulator, domain-separated by `tag` (two fingerprints
    /// with different tags never collide by construction order alone).
    pub fn new(tag: &str) -> Fingerprint {
        let mut fp = Fingerprint {
            state: FNV_OFFSET,
            scratch: String::new(),
        };
        fp.push_str(tag);
        fp
    }

    /// Folds raw bytes (length-prefixed).
    pub fn push_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        self.fold(&(bytes.len() as u64).to_le_bytes());
        self.fold(bytes);
        self
    }

    /// Folds one `u64`.
    pub fn push_u64(&mut self, x: u64) -> &mut Self {
        self.fold(&x.to_le_bytes());
        self
    }

    /// Folds one `u32`.
    pub fn push_u32(&mut self, x: u32) -> &mut Self {
        self.fold(&x.to_le_bytes());
        self
    }

    /// Folds one byte.
    pub fn push_u8(&mut self, x: u8) -> &mut Self {
        self.fold(&[x]);
        self
    }

    /// Folds one `bool`.
    pub fn push_bool(&mut self, x: bool) -> &mut Self {
        self.fold(&[x as u8]);
        self
    }

    /// Folds one `f64` by bit pattern (`-0.0` and `0.0` differ; NaNs
    /// with different payloads differ — keys are byte-level identities,
    /// not numeric ones).
    pub fn push_f64(&mut self, x: f64) -> &mut Self {
        self.fold(&x.to_bits().to_le_bytes());
        self
    }

    /// Folds a string (length-prefixed).
    pub fn push_str(&mut self, s: &str) -> &mut Self {
        self.push_bytes(s.as_bytes())
    }

    /// Folds a value's `Debug` form — the same operator-configuration
    /// identity [`step_core::partition`]'s structural ranks use. Derived
    /// `Debug` prints every field, so two configs fold equal only if
    /// they are field-for-field equal.
    pub fn push_debug<T: std::fmt::Debug>(&mut self, value: &T) -> &mut Self {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        let _ = write!(scratch, "{value:?}");
        self.push_str(&scratch);
        self.scratch = scratch;
        self
    }

    /// Folds one stream token: a variant tag, then the stop level or the
    /// value's element ([`Fingerprint::push_elem`]). The encoding is
    /// self-delimiting, so two token sequences fold the same bytes
    /// exactly when they are equal field for field (dense tile values
    /// by bit pattern).
    pub fn push_token(&mut self, token: &Token) -> &mut Self {
        match token {
            Token::Val(e) => self.push_u8(0).push_elem(e),
            Token::Stop(level) => self.push_u8(1).push_u8(*level),
            Token::Done => self.push_u8(2),
        }
    }

    /// Folds one stream element: a variant tag, then its fields. A tile
    /// folds its rows, cols and a phantom-or-dense tag, then — if dense
    /// — its length-prefixed value bits; a selector its length-prefixed
    /// targets; a buffer reference its id and length-prefixed dims; a
    /// tuple its length-prefixed elements.
    pub fn push_elem(&mut self, elem: &Elem) -> &mut Self {
        match elem {
            Elem::Tile(t) => {
                self.push_u8(0)
                    .push_u64(t.rows() as u64)
                    .push_u64(t.cols() as u64);
                match t.values() {
                    None => self.push_u8(0),
                    Some(values) => {
                        self.push_u8(1).push_u64(values.len() as u64);
                        for v in values {
                            self.push_u32(v.to_bits());
                        }
                        self
                    }
                }
            }
            Elem::Sel(s) => {
                self.push_u8(1).push_u64(s.len() as u64);
                for &target in s.targets() {
                    self.push_u32(target);
                }
                self
            }
            Elem::Buf(b) => {
                self.push_u8(2).push_u64(b.id).push_u64(b.dims.len() as u64);
                for &d in &b.dims {
                    self.push_u64(d);
                }
                self
            }
            Elem::Addr(a) => self.push_u8(3).push_u64(*a),
            Elem::Bool(b) => self.push_u8(4).push_bool(*b),
            Elem::Unit => self.push_u8(5),
            Elem::Tuple(items) => {
                self.push_u8(6).push_u64(items.len() as u64);
                for item in items {
                    self.push_elem(item);
                }
                self
            }
        }
    }

    /// The accumulated 64-bit fingerprint.
    pub fn finish(&self) -> u64 {
        self.state
    }

    fn fold(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }
}

impl SimConfig {
    /// The plan-cache identity of this configuration: a stable
    /// fingerprint over every field **except `threads`** — the one knob
    /// the determinism contract excludes (it only maps shards onto
    /// workers; every reported metric is a pure function of the graph
    /// and the remaining fields). Two configs with equal fingerprints
    /// may share one frozen plan.
    pub fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::new("SimConfig");
        // NOTE: every field except `threads` must be folded here; adding
        // a field to SimConfig without extending this list would make
        // configs that differ in it collide in plan caches.
        let SimConfig {
            onchip_bytes_per_cycle,
            channel_latency,
            hbm,
            max_rounds,
            horizon_step,
            threads: _,
            shards,
            profile_fires,
        } = self;
        fp.push_u64(*onchip_bytes_per_cycle)
            .push_u64(*channel_latency)
            .push_u64(hbm.bytes_per_cycle)
            .push_u64(hbm.banks)
            .push_u64(hbm.row_bytes)
            .push_u64(hbm.t_cas)
            .push_u64(hbm.t_row_miss)
            .push_u64(*max_rounds)
            .push_u64(*horizon_step)
            .push_u64(*shards as u64)
            .push_bool(*profile_fires);
        fp.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_are_stable_and_sensitive() {
        let mut a = Fingerprint::new("t");
        a.push_str("ab").push_u64(3);
        let mut b = Fingerprint::new("t");
        b.push_str("ab").push_u64(3);
        assert_eq!(a.finish(), b.finish());
        let mut c = Fingerprint::new("t");
        c.push_str("a").push_str("b3");
        assert_ne!(a.finish(), c.finish(), "length prefixing separates splits");
    }

    #[test]
    fn sim_config_fingerprint_ignores_threads_only() {
        let base = SimConfig::default();
        let threads = SimConfig {
            threads: 8,
            ..base.clone()
        };
        assert_eq!(base.fingerprint(), threads.fingerprint());
        let horizon = SimConfig {
            horizon_step: 512,
            ..base.clone()
        };
        assert_ne!(base.fingerprint(), horizon.fingerprint());
        let hbm = SimConfig::validation();
        assert_ne!(base.fingerprint(), hbm.fingerprint());
        let profiled = SimConfig {
            profile_fires: true,
            ..base.clone()
        };
        assert_ne!(base.fingerprint(), profiled.fingerprint());
    }
}
