//! The query-session service layer: serve many `(A, n)` queries from
//! one process, reusing finished DP levels across related lengths.
//!
//! The FPRAS builds its `(N, S)` table level by level, and level `ℓ`
//! reads only levels `< ℓ` — so a run to length `n` already contains
//! the answer to every length `≤ n`, and can *continue* to `n' > n`
//! without starting over (the observation de Colnet & Meel's "Towards
//! practical FPRAS for #NFA" builds its reuse on). This module turns
//! that into a serving architecture:
//!
//! * [`QuerySession`] — compiles an automaton once and owns the
//!   engine's **checkpointed** run (the same `engine::Checkpoint` a
//!   fresh run goes through): the level loop can pause after level `k`
//!   and resume to `k' > k`, carrying the copy-on-write
//!   [`UnionMemo`](crate::engine::UnionMemo), the sketch table, and the
//!   per-run sampler seed. `estimate(n)` / `estimate_range(a..=b)` /
//!   `sample(n)` answer from finished levels when they can and extend
//!   the run when they must.
//! * [`ServiceRegistry`] — an LRU cache of sessions keyed by input
//!   fingerprint ([`RunInput::fingerprint`](crate::engine::RunInput::fingerprint)) × [`Params::fingerprint`](crate::Params::fingerprint) × [`SessionPolicy`], so a
//!   stream of mixed-automaton queries turns into session cache hits.
//! * [`protocol`] — the `nfa-count serve` line protocol: a typed
//!   [`Request`](protocol::Request) and a [`Server`](protocol::Server)
//!   that owns the registry, the [`AdmissionController`] and the
//!   tenants, and runs every query through the one admission order.
//! * [`SessionStats`] / [`ServiceStats`] — levels built vs. reused and
//!   session churn, the amortization evidence the bench layer records.
//!
//! # The bit-identity invariant (DESIGN.md D11)
//!
//! The load-bearing correctness claim: after **any** interleaving of
//! smaller and larger queries, `session.estimate(n)` is **bit-identical**
//! to a fresh [`engine::run_with_policy`](crate::engine::run_with_policy)
//! at `n` under the same seed and policy. Three properties make it hold:
//!
//! 1. per-level work is a function of `(Params, level, table, memo)`
//!    alone — the horizon-dependent inputs were pinned into
//!    [`Params::n_hint`](crate::Params::n_hint) (sampler δ split, noise probability), and the
//!    one remaining horizon-dependent knob, `Params::trim_dead`, is
//!    rejected at session construction ([`Params::for_session`](crate::Params::for_session) turns
//!    it off);
//! 2. all estimation randomness is frontier/level-keyed (D8/D9/D10), so
//!    resuming at level `k + 1` derives exactly the streams a fresh run
//!    would; the `Serial` policy's single caller stream is owned by the
//!    session and consumed only by level building, never by queries;
//! 3. sampling queries draw from a **caller-provided** RNG and insert
//!    only frontier-keyed (hence value-congruent) memo entries, so
//!    serving a query cannot perturb a later extension.
//!
//! `proptest_service.rs` enforces the invariant for both policies over
//! random automata and random query orders.

pub mod protocol;
mod quota;
mod registry;
mod session;

pub use quota::{AdmissionController, QuotaConfig, QuotaDenied, QuotaStats};
pub use registry::{ServiceRegistry, ServiceStats, SessionKey};
pub use session::{QuerySession, SessionStats};

/// How a [`QuerySession`] executes and seeds its engine run.
///
/// This is the session-owned counterpart of the engine's
/// [`ExecutionPolicy`](crate::engine::ExecutionPolicy) implementations:
/// a session outlives many queries, so it owns its randomness (the
/// `Serial` caller RNG lives inside the session; `Deterministic`
/// derives everything from the master seed) instead of borrowing it per
/// call. The variant is part of the [`ServiceRegistry`] cache key —
/// sessions with different seeds or policies never alias.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SessionPolicy {
    /// The engine's `Serial` policy: one RNG seeded with `seed`,
    /// threaded through the levels in order.
    Serial {
        /// Seed of the session-owned caller RNG.
        seed: u64,
    },
    /// The engine's `Deterministic` policy: per-cell streams derived
    /// from `seed`, passes fanned out over `threads` workers.
    /// Bit-identical output for every `threads ≥ 1`.
    Deterministic {
        /// Master seed for the derived per-cell streams.
        seed: u64,
        /// Worker-thread cap (`≥ 1`; clamped up from 0).
        threads: usize,
    },
}

impl SessionPolicy {
    /// Short label for diagnostics and experiment tables.
    pub fn label(&self) -> String {
        match self {
            SessionPolicy::Serial { .. } => "serial".to_string(),
            SessionPolicy::Deterministic { threads, .. } => format!("deterministic×{threads}"),
        }
    }

    /// The canonical form used everywhere the policy *means* something
    /// (session construction, [`SessionKey`] hashing): `Deterministic`
    /// thread counts are clamped to `≥ 1`, exactly as the engine clamps
    /// them — so `threads: 0` and `threads: 1`, which behave
    /// identically, share one cache entry instead of compiling two
    /// sessions.
    pub fn normalized(&self) -> SessionPolicy {
        match self {
            SessionPolicy::Serial { seed } => SessionPolicy::Serial { seed: *seed },
            SessionPolicy::Deterministic { seed, threads } => {
                SessionPolicy::Deterministic { seed: *seed, threads: (*threads).max(1) }
            }
        }
    }
}
