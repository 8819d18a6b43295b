//! Parameter derivation for the FPRAS.
//!
//! Two profiles (DESIGN.md D1):
//!
//! * [`Params::paper`] — the exact constants of Algorithm 3:
//!   `β = ε/4n²`, `η = δ/2nm`,
//!   `ns = 4096·e·n⁴/ε² · ln(4096·m²n²·ln(ε⁻²)/δ)`,
//!   `xns = ns · 12·(1 − 2/(3e²))⁻¹ · ln(8/η)`, AppUnion trial constant
//!   12 and threshold constant 24 (Algorithm 1 / Theorem 1), noise
//!   injection enabled (Algorithm 3 lines 16–19). These values carry the
//!   paper's worst-case guarantee and are astronomically large for any
//!   runnable instance — `ns ≈ 10¹⁰` already at `m = n = 16, ε = 0.2` —
//!   which is precisely the gap this implementation's practical profile
//!   addresses (and the paper's conclusion calls out as future work).
//! * [`Params::practical`] — the same *structure* with empirically
//!   calibrated magnitudes: per-level error `β = ε/(2√n)` instead of
//!   `ε/(4n²)` (per-level Monte-Carlo errors are independent, so they
//!   accumulate as `√n`, not `n`; the `n²` in the paper guards the
//!   adversarial worst case), a coarse sampler-tier `β_sample`
//!   (DESIGN.md D5), cyclic sample-cursor reuse instead of the paper's
//!   `break` (D3), union memoization during sampling (D4), and
//!   dead-state trimming (D6).
//!
//! Every knob is public so experiments can ablate individual deviations
//! (experiment E8).

use crate::error::FprasError;

/// How `AppUnion` consumes per-set sample lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CursorPolicy {
    /// Algorithm 1, line 8: stop the trial loop when a set's list is
    /// exhausted (the paper shows this happens with low probability when
    /// sample sets exceed `thresh`).
    PaperBreak,
    /// Wrap around and reuse stored samples. Unbiased marginally but
    /// introduces dependence between trials; required when the trial
    /// budget exceeds the stored sample count (practical profile).
    Cyclic,
}

/// Named parameter profile (for display in experiment output).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Faithful paper constants.
    Paper,
    /// Calibrated practical constants.
    Practical,
    /// Hand-tuned (any field changed from a named profile).
    Custom,
}

/// Fully-resolved run parameters for one `(A, n, ε, δ)` instance.
///
/// Every field can change a run's output. Work sharing that provably
/// cannot — batched count-pass unions (D8), the sample-pass sharing
/// pre-pass (D9) and the executor's claim granularity (D10) — is always
/// on and has no field here.
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// Target relative accuracy ε of the final estimate.
    pub eps: f64,
    /// Target failure probability δ.
    pub delta: f64,
    /// Profile these parameters came from.
    pub profile: Profile,
    /// Per-level relative-error budget for count-phase `AppUnion` calls
    /// (Algorithm 3 line 15). Paper: `ε/4n²`.
    pub beta_count: f64,
    /// Per-level relative-error budget for sampler-internal `AppUnion`
    /// calls (Algorithm 2 line 11). Paper: equal to `beta_count`.
    pub beta_sample: f64,
    /// Per-(state, level) failure budget `η`. Paper: `δ/2nm`.
    pub eta: f64,
    /// Samples stored per (state, level): `|S(qℓ)| = ns`.
    pub ns: usize,
    /// Maximum `sample()` attempts per (state, level): `xns`.
    pub xns: usize,
    /// Constant factor in the `AppUnion` trial count
    /// `t = c·(1+ε_sz)²·m̂/ε²·ln(4/δ)`. Paper: 12.
    pub appunion_c: f64,
    /// Constant factor in `thresh`. Paper: 24.
    pub thresh_c: f64,
    /// Scale of the sampler's initial acceptance probability
    /// `γ₀ = gamma_scale / N(qℓ)`. Paper: `2/(3e)`.
    pub gamma_scale: f64,
    /// Algorithm 3 lines 16–19: with probability `η/2n` replace `N(qℓ)`
    /// by a uniformly random junk value (exists for the entanglement
    /// argument; never useful in practice).
    pub inject_noise: bool,
    /// Memoize sampler-internal union estimates by (level, frontier)
    /// (DESIGN.md D4). Trades sample independence for large speedups.
    pub memoize_unions: bool,
    /// Start each `AppUnion` cursor at a random offset instead of index 0
    /// (decorrelates repeated calls over the same stored lists, D3).
    pub rotate_cursor: bool,
    /// Sample-list consumption policy (D3).
    pub cursor: CursorPolicy,
    /// Skip (state, level) cells that cannot participate in an accepting
    /// length-`n` run (D6).
    pub trim_dead: bool,
    /// The word length these parameters were derived for (`max(n, 1)` at
    /// construction). Every place the algorithms consult "the" length
    /// for an error-budget split — the sampler-internal δ split
    /// ([`Params::delta_sample_inner`]) and the noise probability
    /// `η/2n` — reads this field, **never** the run's current horizon.
    /// That makes per-level work a function of `(Params, level)` alone,
    /// which is what lets a [`QuerySession`](crate::service::QuerySession)
    /// extend a run to a larger length and stay bit-identical to a
    /// fresh run there (DESIGN.md D11). For plain runs this equals the
    /// `n` the params were built for, so nothing changes.
    pub n_hint: usize,
    /// Optional hard cap on membership operations; the run aborts with
    /// [`FprasError::BudgetExceeded`] when exceeded.
    pub max_membership_ops: Option<u64>,
}

impl Params {
    /// Faithful constants from Algorithm 3 and Theorem 1.
    ///
    /// `ns`/`xns` are saturated at `usize::MAX` when the formulas
    /// overflow — at paper constants they exceed memory long before that
    /// matters. Useful for formula inspection (experiment E5) and for
    /// micro-instances.
    pub fn paper(eps: f64, delta: f64, m: usize, n: usize) -> Self {
        let e = std::f64::consts::E;
        let n_f = n.max(1) as f64;
        let m_f = m.max(1) as f64;
        let beta = eps / (4.0 * n_f * n_f);
        let eta = delta / (2.0 * n_f * m_f);
        let ln_eps = (1.0 / (eps * eps)).ln().max(1.0);
        let ns = 4096.0 * e * n_f.powi(4) / (eps * eps)
            * (4096.0 * m_f * m_f * n_f * n_f * ln_eps / delta).ln();
        let xns = ns * 12.0 / (1.0 - 2.0 / (3.0 * e * e)) * (8.0 / eta).ln();
        Params {
            eps,
            delta,
            profile: Profile::Paper,
            beta_count: beta,
            beta_sample: beta,
            eta,
            ns: saturating_usize(ns),
            xns: saturating_usize(xns),
            appunion_c: 12.0,
            thresh_c: 24.0,
            gamma_scale: 2.0 / (3.0 * e),
            inject_noise: true,
            memoize_unions: false,
            rotate_cursor: false,
            cursor: CursorPolicy::PaperBreak,
            trim_dead: false,
            n_hint: n.max(1),
            max_membership_ops: None,
        }
    }

    /// Calibrated practical constants (see module docs and DESIGN.md D1).
    pub fn practical(eps: f64, delta: f64, m: usize, n: usize) -> Self {
        let e = std::f64::consts::E;
        let n_f = n.max(1) as f64;
        let m_f = m.max(1) as f64;
        let beta_count = (eps / (2.0 * n_f.sqrt())).min(0.25);
        let eta = (delta / (2.0 * n_f * m_f)).min(0.25);
        // Stored-sample resolution must support per-level fraction
        // estimates at the β_count scale: ns ≈ n/ε².
        let ns = (n_f / (eps * eps)).ceil().clamp(16.0, 100_000.0) as usize;
        // Acceptance per sample() call is ≈ gamma_scale ≈ 0.245 in
        // practice (the paper's worst-case bound is 2/(3e²) ≈ 0.09);
        // 8× oversampling leaves generous slack, with padding as the
        // documented fallback.
        let xns = ns.saturating_mul(8);
        Params {
            eps,
            delta,
            profile: Profile::Practical,
            beta_count,
            beta_sample: 0.5,
            eta,
            ns,
            xns,
            appunion_c: 4.0,
            thresh_c: 24.0,
            gamma_scale: 2.0 / (3.0 * e),
            inject_noise: false,
            memoize_unions: true,
            rotate_cursor: true,
            cursor: CursorPolicy::Cyclic,
            trim_dead: true,
            n_hint: n.max(1),
            max_membership_ops: None,
        }
    }

    /// Practical-profile parameters for a long-lived
    /// [`QuerySession`](crate::service::QuerySession): identical to
    /// [`Params::practical`] except that horizon-dependent dead-state
    /// trimming (D6) is disabled — which cells level `ℓ` processes must
    /// not depend on how far the session has been extended, or resumed
    /// runs could not be bit-identical to fresh ones (DESIGN.md D11).
    /// `n` here is the *largest* length the session is expected to
    /// serve; it sizes `ns`/`xns` and pins [`Params::n_hint`].
    pub fn for_session(eps: f64, delta: f64, m: usize, n: usize) -> Self {
        Params { trim_dead: false, ..Params::practical(eps, delta, m, n) }
    }

    /// Validates ranges; returns a descriptive error on misuse.
    pub fn validate(&self) -> Result<(), FprasError> {
        if !(self.eps > 0.0 && self.eps < 1.0) {
            return Err(FprasError::InvalidParams(format!(
                "eps must be in (0,1), got {}",
                self.eps
            )));
        }
        if !(self.delta > 0.0 && self.delta < 1.0) {
            return Err(FprasError::InvalidParams(format!(
                "delta must be in (0,1), got {}",
                self.delta
            )));
        }
        if self.ns == 0 {
            return Err(FprasError::InvalidParams("ns must be positive".into()));
        }
        if self.xns < self.ns {
            return Err(FprasError::InvalidParams(format!(
                "xns ({}) must be at least ns ({})",
                self.xns, self.ns
            )));
        }
        for (name, v) in [
            ("beta_count", self.beta_count),
            ("beta_sample", self.beta_sample),
            ("eta", self.eta),
            ("appunion_c", self.appunion_c),
            ("gamma_scale", self.gamma_scale),
        ] {
            if !(v > 0.0 && v.is_finite()) {
                return Err(FprasError::InvalidParams(format!("{name} must be positive, got {v}")));
            }
        }
        if self.n_hint == 0 {
            return Err(FprasError::InvalidParams(
                "n_hint must be positive (constructors pin it to max(n, 1))".into(),
            ));
        }
        if self.gamma_scale > 1.0 {
            return Err(FprasError::InvalidParams(format!(
                "gamma_scale must be at most 1 (it is a probability scale), got {}",
                self.gamma_scale
            )));
        }
        Ok(())
    }

    /// Refuses lengths beyond the one these params were derived for. The
    /// error-budget splits (sampler δ, noise probability) are pinned to
    /// [`Params::n_hint`] (D11), so running or serving *longer* would
    /// silently loosen the promised `(ε, δ)`; shorter lengths only
    /// tighten the split and stay allowed.
    pub(crate) fn check_length(&self, n: usize) -> Result<(), FprasError> {
        if n > self.n_hint {
            return Err(FprasError::InvalidParams(format!(
                "length {n} exceeds the length these params were derived for (n_hint = {}); \
                 rebuild Params for the target length",
                self.n_hint
            )));
        }
        Ok(())
    }

    /// Marks the profile custom; call after tweaking any field by hand so
    /// experiment output stays honest.
    pub fn into_custom(mut self) -> Self {
        self.profile = Profile::Custom;
        self
    }

    /// `AppUnion` trial count `t = ⌈c·(1+ε_sz)²·m̂/ε²·ln(4/δ)⌉`
    /// (Theorem 1 / Algorithm 1 line 3).
    pub fn appunion_trials(&self, eps: f64, delta: f64, eps_sz: f64, m_hat: usize) -> usize {
        let t = self.appunion_c * (1.0 + eps_sz).powi(2) * m_hat as f64 / (eps * eps)
            * (4.0 / delta).ln().max(1.0);
        saturating_usize(t.ceil()).max(1)
    }

    /// `thresh = 24·(1+ε_sz)²/ε²·ln(4k/δ)` (Theorem 1) — the minimum
    /// per-set sample count the paper's analysis needs.
    pub fn appunion_thresh(&self, eps: f64, delta: f64, eps_sz: f64, k: usize) -> usize {
        let t = self.thresh_c * (1.0 + eps_sz).powi(2) / (eps * eps)
            * (4.0 * k as f64 / delta).ln().max(1.0);
        saturating_usize(t.ceil())
    }

    /// Cumulative size-estimate slack entering level `ℓ`:
    /// `ε_sz = (1+β)^{ℓ-1} − 1`, capped at `e − 1` (the paper caps the
    /// accumulated product at `e` via `(1 + 1/4n²)^{2n²} ≤ e`).
    pub fn eps_sz_at_level(&self, beta: f64, level: usize) -> f64 {
        let raw = (1.0 + beta).powi(level.saturating_sub(1) as i32) - 1.0;
        raw.min(std::f64::consts::E - 1.0)
    }

    /// δ passed to count-phase `AppUnion` calls
    /// (Algorithm 3 line 15: `η / (2·(1 − 1/2^{n+1})) ≈ η/2`).
    pub fn delta_count_inner(&self) -> f64 {
        self.eta / 2.0
    }

    /// δ passed to sampler-internal `AppUnion` calls (Algorithm 2 line 2:
    /// the sampler is invoked with confidence `η/(2·xns)` and splits it
    /// over its `≤ 4n` union calls, with `n` read from [`Params::n_hint`]
    /// so the split never depends on the run's current horizon).
    pub fn delta_sample_inner(&self) -> f64 {
        (self.eta / (2.0 * self.xns as f64) / (4.0 * self.n_hint.max(1) as f64)).max(1e-12)
    }

    /// A 64-bit fingerprint of every field that influences a run's
    /// output, used (together with an automaton fingerprint) as the
    /// session-cache key of the
    /// [`ServiceRegistry`](crate::service::ServiceRegistry). Floats are
    /// hashed by their bit patterns, so two `Params` collide only when
    /// they are numerically identical.
    pub fn fingerprint(&self) -> u64 {
        let mut acc: u64 = 0x5E55_10F1;
        let mut mix = |v: u64| {
            acc = crate::table::splitmix64(acc ^ crate::table::splitmix64(v));
        };
        for f in [
            self.eps,
            self.delta,
            self.beta_count,
            self.beta_sample,
            self.eta,
            self.appunion_c,
            self.thresh_c,
            self.gamma_scale,
        ] {
            mix(f.to_bits());
        }
        for u in [self.ns as u64, self.xns as u64, self.n_hint as u64] {
            mix(u);
        }
        let bools = [
            self.inject_noise,
            self.memoize_unions,
            self.rotate_cursor,
            self.cursor == CursorPolicy::Cyclic,
            self.trim_dead,
        ];
        mix(bools.iter().fold(0u64, |a, &b| (a << 1) | b as u64));
        // Separate discriminant and payload: folding None into a
        // sentinel payload would collide with the Some of that value.
        mix(self.max_membership_ops.is_some() as u64);
        mix(self.max_membership_ops.unwrap_or(0));
        acc
    }
}

fn saturating_usize(v: f64) -> usize {
    if !v.is_finite() || v >= usize::MAX as f64 {
        usize::MAX
    } else if v <= 0.0 {
        0
    } else {
        v as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_formulas_at_reference_point() {
        // m = n = 16, ε = 0.2, δ = 0.1: ns must be astronomically large —
        // that is the paper's practicality gap (DESIGN.md D1).
        let p = Params::paper(0.2, 0.1, 16, 16);
        assert!(p.ns > 1_000_000_000, "paper ns = {}", p.ns);
        assert!(p.xns > p.ns);
        assert!((p.beta_count - 0.2 / 1024.0).abs() < 1e-12);
        assert!((p.eta - 0.1 / 512.0).abs() < 1e-12);
        assert!(p.inject_noise);
        assert_eq!(p.cursor, CursorPolicy::PaperBreak);
        p.validate().unwrap();
    }

    #[test]
    fn paper_ns_scaling_shape() {
        // ns ~ n⁴/ε²: doubling n multiplies by ~16, halving ε by ~4.
        let base = Params::paper(0.2, 0.1, 16, 16).ns as f64;
        let n2 = Params::paper(0.2, 0.1, 16, 32).ns as f64;
        let e2 = Params::paper(0.1, 0.1, 16, 16).ns as f64;
        let n_ratio = n2 / base;
        let e_ratio = e2 / base;
        assert!((15.0..18.0).contains(&n_ratio), "n ratio {n_ratio}");
        assert!((3.9..4.3).contains(&e_ratio), "eps ratio {e_ratio}");
    }

    #[test]
    fn practical_is_runnable() {
        let p = Params::practical(0.3, 0.05, 16, 16);
        assert!(p.ns < 1000, "practical ns = {}", p.ns);
        assert!(p.memoize_unions);
        assert_eq!(p.cursor, CursorPolicy::Cyclic);
        assert!(!p.inject_noise);
        p.validate().unwrap();
    }

    #[test]
    fn validation_rejects_bad_inputs() {
        let mut p = Params::practical(0.3, 0.05, 8, 8);
        p.eps = 0.0;
        assert!(p.validate().is_err());
        let mut p = Params::practical(0.3, 0.05, 8, 8);
        p.delta = 1.5;
        assert!(p.validate().is_err());
        let mut p = Params::practical(0.3, 0.05, 8, 8);
        p.xns = p.ns - 1;
        assert!(p.validate().is_err());
        let mut p = Params::practical(0.3, 0.05, 8, 8);
        p.gamma_scale = 1.5;
        assert!(p.validate().is_err());
    }

    #[test]
    fn trials_formula_monotonicity() {
        let p = Params::practical(0.3, 0.05, 8, 8);
        let base = p.appunion_trials(0.1, 0.05, 0.0, 2);
        assert!(p.appunion_trials(0.05, 0.05, 0.0, 2) > base); // tighter eps
        assert!(p.appunion_trials(0.1, 0.01, 0.0, 2) > base); // tighter delta
        assert!(p.appunion_trials(0.1, 0.05, 1.0, 2) > base); // more slack
        assert!(p.appunion_trials(0.1, 0.05, 0.0, 4) > base); // more sets
    }

    #[test]
    fn eps_sz_capped_at_e_minus_one() {
        let p = Params::paper(0.2, 0.1, 4, 4);
        let capped = p.eps_sz_at_level(0.5, 1000);
        assert!((capped - (std::f64::consts::E - 1.0)).abs() < 1e-12);
        assert_eq!(p.eps_sz_at_level(0.1, 1), 0.0); // (1+β)^0 - 1
    }

    #[test]
    fn thresh_below_ns_for_paper_profile() {
        // Theorem 1's precondition: stored sets must exceed thresh. The
        // paper's proof of Lemma 4 shows thresh ≤ ns; check at a point.
        let p = Params::paper(0.2, 0.1, 16, 16);
        let eps_sz = p.eps_sz_at_level(p.beta_count, 16);
        let thresh = p.appunion_thresh(p.beta_count, p.delta_count_inner(), eps_sz, 16);
        assert!(thresh <= p.ns, "thresh {} vs ns {}", thresh, p.ns);
    }

    #[test]
    fn custom_marker() {
        let p = Params::practical(0.3, 0.05, 8, 8).into_custom();
        assert_eq!(p.profile, Profile::Custom);
    }

    #[test]
    fn n_hint_pins_the_derivation_length() {
        // Both constructors record the n they derived for, clamped ≥ 1,
        // and the sampler δ split reads the field, never a runtime n —
        // the horizon-independence D11 rests on.
        assert_eq!(Params::practical(0.3, 0.05, 8, 12).n_hint, 12);
        assert_eq!(Params::paper(0.3, 0.05, 8, 12).n_hint, 12);
        assert_eq!(Params::practical(0.3, 0.05, 8, 0).n_hint, 1);
        let a = Params::practical(0.3, 0.05, 8, 12);
        let mut b = a.clone();
        b.n_hint = 24;
        assert!(b.delta_sample_inner() < a.delta_sample_inner());
        b.n_hint = 0;
        assert!(b.validate().is_err());
    }

    #[test]
    fn for_session_is_practical_minus_trimming() {
        let session = Params::for_session(0.3, 0.05, 8, 12);
        let practical = Params::practical(0.3, 0.05, 8, 12);
        assert!(!session.trim_dead);
        assert_eq!(Params { trim_dead: true, ..session.clone() }, practical);
        session.validate().unwrap();
    }

    #[test]
    fn fingerprint_separates_output_relevant_fields() {
        let base = Params::for_session(0.3, 0.05, 8, 12);
        assert_eq!(base.fingerprint(), base.clone().fingerprint());
        // Every output-relevant field must move the fingerprint.
        let mut eps = base.clone();
        eps.eps = 0.31;
        let mut ns = base.clone();
        ns.ns += 1;
        let mut hint = base.clone();
        hint.n_hint += 1;
        let mut memo = base.clone();
        memo.memoize_unions = !memo.memoize_unions;
        let mut budget = base.clone();
        budget.max_membership_ops = Some(1_000_000);
        // The adversarial case a sentinel encoding would collide on:
        // Some(value-that-maps-to-the-None-sentinel) vs None.
        let mut budget_edge = base.clone();
        budget_edge.max_membership_ops = Some(u64::MAX ^ 0x1);
        assert_ne!(base.fingerprint(), budget_edge.fingerprint());
        let prints = [
            base.fingerprint(),
            eps.fingerprint(),
            ns.fingerprint(),
            hint.fingerprint(),
            memo.fingerprint(),
            budget.fingerprint(),
        ];
        let distinct: std::collections::HashSet<_> = prints.iter().collect();
        assert_eq!(distinct.len(), prints.len(), "{prints:?}");
    }
}
