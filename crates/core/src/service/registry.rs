//! LRU session cache: mixed-automaton query streams become cache hits.

use crate::engine::{Pool, RunInput};
use crate::error::FprasError;
use crate::params::Params;
use crate::service::session::{QuerySession, SessionStats};
use crate::service::SessionPolicy;
use std::sync::Arc;

/// The cache key of one session: substrate × parameters × policy.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SessionKey {
    /// [`RunInput::fingerprint`] of the substrate input. Each substrate
    /// seeds its hash with its own constant, so the substrates partition
    /// the key space.
    pub substrate: u64,
    /// [`Params::fingerprint`] of the parameters.
    pub params: u64,
    /// The execution policy (seed and thread count included).
    pub policy: SessionPolicy,
}

impl SessionKey {
    /// Fingerprints `(input, params, policy)` into a cache key. Hashing
    /// walks the input's full transition or edge list — `O(m + |Δ|)` —
    /// so high-QPS callers should compute the key once per input and
    /// use [`ServiceRegistry::session_with_key`] on the hot path.
    pub fn new<I: RunInput + ?Sized>(input: &I, params: &Params, policy: &SessionPolicy) -> Self {
        SessionKey {
            substrate: input.fingerprint(),
            params: params.fingerprint(),
            policy: policy.normalized(),
        }
    }
}

/// Registry-level accounting: session churn plus the aggregate of every
/// session's query counters (evicted sessions included).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Sessions compiled from scratch (registry misses).
    pub sessions_created: u64,
    /// Queries routed to an existing session (registry hits).
    pub session_hits: u64,
    /// Sessions evicted by the LRU policy.
    pub sessions_evicted: u64,
    /// Poisoned sessions dropped on lookup and replaced by a fresh
    /// compile (a budget abort must not brick its cache key forever).
    pub sessions_recycled: u64,
    /// Shared work-stealing pools compiled (one per distinct thread
    /// count among the cached sessions, however many Deterministic
    /// sessions multiplex onto it — D13's "single worker set" evidence
    /// is this staying at 1 while `sessions_created` climbs). A count
    /// whose sessions were all evicted gets a new pool on its next use.
    pub pools_created: u64,
    /// OS worker threads spawned across every shared pool (`threads-1`
    /// per pool; the caller doubles as worker 0).
    pub pool_workers_spawned: u64,
}

/// An LRU cache of [`QuerySession`]s keyed by [`SessionKey`].
///
/// The serving front door: hand it every incoming `(A, params, policy,
/// n)` query and it routes to the matching session, compiling one only
/// on a miss and evicting the least-recently-used session at capacity.
///
/// ```
/// use fpras_automata::{Alphabet, NfaBuilder};
/// use fpras_core::service::{ServiceRegistry, SessionPolicy};
/// use fpras_core::Params;
///
/// let mut b = NfaBuilder::new(Alphabet::binary());
/// let q = b.add_state();
/// b.set_initial(q);
/// b.add_accepting(q);
/// b.add_transition(q, 0, q);
/// b.add_transition(q, 1, q);
/// let nfa = b.build().unwrap();
///
/// let mut registry = ServiceRegistry::new(4);
/// let params = Params::for_session(0.3, 0.1, 1, 12);
/// let policy = SessionPolicy::Deterministic { seed: 1, threads: 1 };
/// let a = registry.session(&nfa, &params, &policy).unwrap().estimate(8).unwrap();
/// // Same key: the second call is a hit and reuses all 8 levels.
/// let b2 = registry.session(&nfa, &params, &policy).unwrap().estimate(8).unwrap();
/// assert_eq!(a, b2);
/// assert_eq!(registry.stats().sessions_created, 1);
/// assert_eq!(registry.stats().session_hits, 1);
/// ```
pub struct ServiceRegistry {
    capacity: usize,
    clock: u64,
    slots: Vec<Slot>,
    stats: ServiceStats,
    /// Query counters of evicted sessions, folded in at eviction so
    /// [`ServiceRegistry::session_totals`] never loses history.
    retired: SessionStats,
    /// Shared executors keyed by thread count: every Deterministic
    /// session the registry compiles multiplexes onto the one pool for
    /// its thread count instead of spawning a private worker fleet, so
    /// idle sessions pin zero threads (D13). Scheduling is invisible to
    /// output (D10), so sharing cannot perturb any served value. A pool
    /// lives only while a cached session holds it, so at most `capacity`
    /// pools (and their parked workers) are alive at once.
    pools: Vec<(usize, Arc<Pool>)>,
}

struct Slot {
    key: SessionKey,
    session: QuerySession,
    last_used: u64,
}

impl ServiceRegistry {
    /// A registry holding at most `capacity ≥ 1` live sessions.
    pub fn new(capacity: usize) -> Self {
        ServiceRegistry {
            capacity: capacity.max(1),
            clock: 0,
            slots: Vec::new(),
            stats: ServiceStats::default(),
            retired: SessionStats::default(),
            pools: Vec::new(),
        }
    }

    /// The maximum number of live sessions.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Live sessions currently cached.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no session is cached.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Registry churn counters.
    pub fn stats(&self) -> &ServiceStats {
        &self.stats
    }

    /// Aggregate query accounting over every session the registry ever
    /// owned (live ones plus retired history) — the amortization
    /// evidence (`levels_reused` vs `levels_built`) for a whole trace.
    pub fn session_totals(&self) -> SessionStats {
        let mut total = self.retired;
        for slot in &self.slots {
            total.merge(slot.session.stats());
        }
        total
    }

    /// Routes to the session for `(input, params, policy)`, compiling it
    /// on a miss (and evicting the least-recently-used session when the
    /// registry is full). Construction errors (invalid params,
    /// `trim_dead`) propagate without disturbing the cache. Automata and
    /// nROBPs share one LRU (capacity, eviction, stats), and their
    /// fingerprints never alias a slot.
    ///
    /// Fingerprints the input on every call (`O(m + |Δ|)`); high-QPS
    /// callers should build the [`SessionKey`] once per input and use
    /// [`ServiceRegistry::session_with_key`].
    pub fn session<I: RunInput + ?Sized>(
        &mut self,
        input: &I,
        params: &Params,
        policy: &SessionPolicy,
    ) -> Result<&mut QuerySession, FprasError> {
        self.session_with_key(SessionKey::new(input, params, policy), input, params, policy)
    }

    /// [`ServiceRegistry::session`] with a caller-precomputed key — the
    /// hot lookup path: a repeat query for an already-built length then
    /// costs O(live sessions) key comparisons plus an O(1) table read,
    /// with no re-hashing of the input. The caller is responsible for
    /// the key actually fingerprinting `(input, params, policy)`
    /// (compute it with [`SessionKey::new`]); a mismatched key aliases
    /// or duplicates cache entries but cannot corrupt a session.
    pub fn session_with_key<I: RunInput + ?Sized>(
        &mut self,
        key: SessionKey,
        input: &I,
        params: &Params,
        policy: &SessionPolicy,
    ) -> Result<&mut QuerySession, FprasError> {
        self.session_with_key_recycled(key, input, params, policy).map(|(s, _)| s)
    }

    /// [`ServiceRegistry::session_with_key`], additionally reporting
    /// whether this lookup dropped a poisoned predecessor (`true` means
    /// the returned session is a fresh recompile replacing a
    /// budget-aborted one). Serving front-ends use the flag to surface
    /// one "session recycled" notice to the client without a second
    /// lookup or a re-borrow of the registry stats.
    ///
    /// The LRU lookup itself: hit (refreshing recency), poisoned-drop,
    /// or compile-on-miss, evicting the LRU slot at capacity. Afterwards
    /// every shared pool no live session holds is dropped, so the
    /// registry keeps at most one pool per live Deterministic session.
    pub fn session_with_key_recycled<I: RunInput + ?Sized>(
        &mut self,
        key: SessionKey,
        input: &I,
        params: &Params,
        policy: &SessionPolicy,
    ) -> Result<(&mut QuerySession, bool), FprasError> {
        self.clock += 1;
        let mut recycled_here = false;
        if let Some(i) = self.slots.iter().position(|s| s.key == key) {
            if self.slots[i].session.is_poisoned() {
                // A poisoned session can never serve again; drop it so
                // the miss path below recompiles a fresh one instead of
                // failing this key forever.
                let recycled = self.slots.swap_remove(i);
                self.retired.merge(recycled.session.stats());
                self.stats.sessions_recycled += 1;
                recycled_here = true;
            } else {
                self.stats.session_hits += 1;
                self.slots[i].last_used = self.clock;
                return Ok((&mut self.slots[i].session, false));
            }
        }
        let mut session = QuerySession::new(input, params.clone(), policy.clone())?;
        if let SessionPolicy::Deterministic { threads, .. } = policy {
            let threads = (*threads).max(1);
            if threads > 1 {
                session = session.with_shared_pool(self.shared_pool(threads));
            }
        }
        if self.slots.len() >= self.capacity {
            let (lru, _) = self
                .slots
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.last_used)
                .expect("capacity ≥ 1 and the registry is full");
            let evicted = self.slots.swap_remove(lru);
            self.retired.merge(evicted.session.stats());
            self.stats.sessions_evicted += 1;
        }
        // The registry's own handle is the last one: the pool's sessions
        // were evicted or recycled. Dropping it joins its parked workers.
        self.pools.retain(|(_, pool)| Arc::strong_count(pool) > 1);
        self.stats.sessions_created += 1;
        self.slots.push(Slot { key, session, last_used: self.clock });
        Ok((&mut self.slots.last_mut().expect("just pushed").session, recycled_here))
    }

    /// Iterates the live sessions in unspecified order. Serving
    /// front-ends merge their run counters for `--stats` reports;
    /// evicted sessions are gone (their query counters survive in
    /// [`ServiceRegistry::session_totals`], their run counters do not).
    pub fn sessions(&self) -> impl Iterator<Item = &QuerySession> + '_ {
        self.slots.iter().map(|s| &s.session)
    }

    /// The registry-wide shared executor for `threads` workers,
    /// compiling it on first use. Every Deterministic session with this
    /// thread count multiplexes onto the same parked-worker set, so the
    /// registry spawns `threads - 1` OS threads once rather than per
    /// session.
    fn shared_pool(&mut self, threads: usize) -> Arc<Pool> {
        if let Some((_, pool)) = self.pools.iter().find(|(t, _)| *t == threads) {
            return Arc::clone(pool);
        }
        let pool = Arc::new(Pool::new(threads));
        self.stats.pools_created += 1;
        self.stats.pool_workers_spawned += (threads - 1) as u64;
        self.pools.push((threads, Arc::clone(&pool)));
        pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpras_automata::robp::Robp;
    use fpras_automata::{Alphabet, Nfa, NfaBuilder};

    fn all_words() -> Nfa {
        let mut b = NfaBuilder::new(Alphabet::binary());
        let q = b.add_state();
        b.set_initial(q);
        b.add_accepting(q);
        b.add_transition(q, 0, q);
        b.add_transition(q, 1, q);
        b.build().unwrap()
    }

    fn ones_only() -> Nfa {
        let mut b = NfaBuilder::new(Alphabet::binary());
        let q = b.add_state();
        b.set_initial(q);
        b.add_accepting(q);
        b.add_transition(q, 1, q);
        b.build().unwrap()
    }

    fn small_robp(seed: u64) -> Robp {
        // Hand-rolled (workloads depends on core, not vice versa): a
        // two-level binary program whose shape varies with `seed`.
        use fpras_automata::robp::RobpBuilder;
        use fpras_automata::Alphabet;
        let mut b = RobpBuilder::new(Alphabet::binary(), 2);
        let s = b.add_node(0);
        b.set_source(s);
        let a1 = b.add_node(1);
        let b1 = b.add_node(1);
        let t = b.add_node(2);
        b.add_edge(s, (seed % 2) as u8, a1);
        b.add_edge(s, 1, b1);
        b.add_edge(a1, 0, t);
        b.add_edge(b1, 1, t);
        b.add_accepting(t);
        b.build().unwrap()
    }

    #[test]
    fn fingerprints_distinguish_structures() {
        assert_ne!(all_words().fingerprint(), ones_only().fingerprint());
        assert_eq!(all_words().fingerprint(), all_words().fingerprint());
        let p1 = Params::for_session(0.3, 0.1, 1, 8);
        let p2 = Params::for_session(0.3, 0.1, 1, 9);
        assert_ne!(p1.fingerprint(), p2.fingerprint());
        assert_eq!(p1.fingerprint(), p1.clone().fingerprint());
        let mut p3 = p1.clone();
        p3.rotate_cursor = !p3.rotate_cursor;
        assert_ne!(p1.fingerprint(), p3.fingerprint());
    }

    #[test]
    fn robp_fingerprints_partition_the_key_space() {
        assert_eq!(small_robp(0).fingerprint(), small_robp(0).fingerprint());
        assert_ne!(small_robp(0).fingerprint(), small_robp(1).fingerprint());
        // A program never aliases an automaton — even its own node
        // graph: the two fingerprints use disjoint seed constants.
        let robp = small_robp(0);
        assert_ne!(robp.fingerprint(), robp.graph().fingerprint());
    }

    #[test]
    fn robp_sessions_share_the_lru_with_nfa_sessions() {
        let mut registry = ServiceRegistry::new(4);
        let robp = small_robp(0);
        let params = Params::for_session(0.4, 0.1, robp.num_nodes(), robp.depth());
        let policy = SessionPolicy::Serial { seed: 7 };
        let e = registry.session(&robp, &params, &policy).unwrap().estimate(2).unwrap();
        // Repeat query: a hit on the same slot, bit-identical answer.
        let e2 = registry.session(&robp, &params, &policy).unwrap().estimate(2).unwrap();
        assert_eq!(e, e2);
        assert_eq!(registry.stats().sessions_created, 1);
        assert_eq!(registry.stats().session_hits, 1);
        // An NFA session under the same params/policy coexists in the
        // same cache without aliasing.
        let nfa_params = Params::for_session(0.4, 0.1, 1, 2);
        registry.session(&all_words(), &nfa_params, &policy).unwrap().estimate(2).unwrap();
        assert_eq!(registry.stats().sessions_created, 2);
        assert_eq!(registry.len(), 2);
        // And the registry answer matches a standalone session.
        let fresh = QuerySession::new(&robp, params, policy).unwrap().estimate(2).unwrap();
        assert_eq!(e, fresh);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut registry = ServiceRegistry::new(2);
        let params = Params::for_session(0.4, 0.1, 1, 6);
        let a = all_words();
        let b = ones_only();
        let pol = |seed| SessionPolicy::Deterministic { seed, threads: 1 };
        registry.session(&a, &params, &pol(1)).unwrap().estimate(4).unwrap();
        registry.session(&b, &params, &pol(1)).unwrap().estimate(4).unwrap();
        // Touch `a` so `b` is the LRU, then insert a third key.
        registry.session(&a, &params, &pol(1)).unwrap();
        registry.session(&a, &params, &pol(2)).unwrap().estimate(4).unwrap();
        assert_eq!(registry.len(), 2);
        assert_eq!(registry.stats().sessions_created, 3);
        assert_eq!(registry.stats().sessions_evicted, 1);
        assert_eq!(registry.stats().session_hits, 1);
        // `b` was evicted: asking for it again is a miss (and evicts in
        // turn), but its query history survives in the totals.
        registry.session(&b, &params, &pol(1)).unwrap();
        assert_eq!(registry.stats().sessions_created, 4);
        let totals = registry.session_totals();
        assert_eq!(totals.queries_served, 3);
        assert_eq!(totals.levels_built, 12);
    }

    #[test]
    fn hit_reuses_built_levels() {
        let mut registry = ServiceRegistry::new(4);
        let params = Params::for_session(0.4, 0.1, 1, 10);
        let nfa = all_words();
        let policy = SessionPolicy::Serial { seed: 3 };
        registry.session(&nfa, &params, &policy).unwrap().estimate(10).unwrap();
        registry.session(&nfa, &params, &policy).unwrap().estimate(7).unwrap();
        let totals = registry.session_totals();
        assert_eq!(totals.levels_built, 10);
        assert_eq!(totals.levels_reused, 7);
        assert_eq!(registry.stats().session_hits, 1);
    }

    #[test]
    fn thread_count_zero_and_one_share_a_key() {
        // Deterministic { threads: 0 } is clamped to 1 everywhere it
        // means something, so the two spellings must alias one session.
        let nfa = all_words();
        let params = Params::for_session(0.4, 0.1, 1, 6);
        let zero = SessionPolicy::Deterministic { seed: 5, threads: 0 };
        let one = SessionPolicy::Deterministic { seed: 5, threads: 1 };
        assert_eq!(SessionKey::new(&nfa, &params, &zero), SessionKey::new(&nfa, &params, &one));
        let mut registry = ServiceRegistry::new(4);
        registry.session(&nfa, &params, &zero).unwrap().estimate(4).unwrap();
        registry.session(&nfa, &params, &one).unwrap().estimate(4).unwrap();
        assert_eq!(registry.stats().sessions_created, 1);
        assert_eq!(registry.stats().session_hits, 1);
        // Different seeds or real thread counts still never alias.
        let other = SessionPolicy::Deterministic { seed: 5, threads: 2 };
        assert_ne!(SessionKey::new(&nfa, &params, &one), SessionKey::new(&nfa, &params, &other));
    }

    #[test]
    fn poisoned_sessions_are_recycled_on_lookup() {
        let mut registry = ServiceRegistry::new(2);
        let nfa = all_words();
        let mut params = Params::for_session(0.4, 0.1, 1, 8);
        params.max_membership_ops = Some(1);
        let policy = SessionPolicy::Serial { seed: 2 };
        // First query blows the (absurd) budget and poisons the session.
        assert!(registry.session(&nfa, &params, &policy).unwrap().estimate(8).is_err());
        // The key must not be bricked: the next lookup recompiles.
        let session = registry.session(&nfa, &params, &policy).unwrap();
        assert!(!session.is_poisoned());
        assert_eq!(registry.stats().sessions_recycled, 1);
        assert_eq!(registry.stats().sessions_created, 2);
        assert_eq!(registry.stats().session_hits, 0);
        assert_eq!(registry.len(), 1);
    }

    #[test]
    fn concurrent_deterministic_sessions_share_one_pool() {
        // Two Deterministic sessions (distinct automata, same thread
        // count) must multiplex onto ONE shared worker set: a single
        // pool compiled, threads-1 workers spawned total, not per
        // session — and sharing must not perturb any served value.
        let mut registry = ServiceRegistry::new(4);
        let params = Params::for_session(0.4, 0.1, 1, 8);
        let pol = SessionPolicy::Deterministic { seed: 9, threads: 3 };
        let a = all_words();
        let b = ones_only();
        let ea = registry.session(&a, &params, &pol).unwrap().estimate(8).unwrap();
        let eb = registry.session(&b, &params, &pol).unwrap().estimate(8).unwrap();
        assert_eq!(registry.stats().sessions_created, 2);
        assert_eq!(registry.stats().pools_created, 1, "one pool for both sessions");
        assert_eq!(registry.stats().pool_workers_spawned, 2, "threads-1 workers, once");
        // Bit-identity: shared-pool answers equal fresh single-session
        // runs under the same seed/policy (scheduling is invisible).
        let fresh_a =
            QuerySession::new(&a, params.clone(), pol.clone()).unwrap().estimate(8).unwrap();
        let fresh_b =
            QuerySession::new(&b, params.clone(), pol.clone()).unwrap().estimate(8).unwrap();
        assert_eq!(ea, fresh_a);
        assert_eq!(eb, fresh_b);
        // A different thread count gets its own pool; a repeat of an
        // existing count does not.
        let pol2 = SessionPolicy::Deterministic { seed: 9, threads: 2 };
        registry.session(&a, &params, &pol2).unwrap().estimate(4).unwrap();
        assert_eq!(registry.stats().pools_created, 2);
        let pol3 = SessionPolicy::Deterministic { seed: 11, threads: 3 };
        registry.session(&b, &params, &pol3).unwrap().estimate(4).unwrap();
        assert_eq!(registry.stats().pools_created, 2);
        assert_eq!(registry.stats().pool_workers_spawned, 3);
    }

    #[test]
    fn pools_no_session_holds_are_freed() {
        // Each miss evicts the one cached session, and with it the only
        // hold on its pool: one pool stays alive, never one per thread
        // count ever seen.
        let mut registry = ServiceRegistry::new(1);
        let nfa = all_words();
        let params = Params::for_session(0.4, 0.1, 1, 4);
        for threads in [2, 3, 4] {
            let policy = SessionPolicy::Deterministic { seed: 1, threads };
            registry.session(&nfa, &params, &policy).unwrap().estimate(2).unwrap();
            assert_eq!(registry.pools.len(), 1, "threads = {threads}");
            assert_eq!(registry.pools[0].0, threads);
        }
        assert_eq!(registry.stats().pools_created, 3);
        assert_eq!(registry.stats().pool_workers_spawned, 6);
    }

    #[test]
    fn recycled_flag_reports_poison_replacement() {
        let mut registry = ServiceRegistry::new(2);
        let nfa = all_words();
        let mut params = Params::for_session(0.4, 0.1, 1, 8);
        params.max_membership_ops = Some(1);
        let policy = SessionPolicy::Serial { seed: 2 };
        let key = SessionKey::new(&nfa, &params, &policy);
        let (session, recycled) =
            registry.session_with_key_recycled(key.clone(), &nfa, &params, &policy).unwrap();
        assert!(!recycled);
        assert!(session.estimate(8).is_err());
        let (session, recycled) =
            registry.session_with_key_recycled(key.clone(), &nfa, &params, &policy).unwrap();
        assert!(recycled, "poisoned predecessor was dropped");
        assert!(!session.is_poisoned());
        let (_, recycled) =
            registry.session_with_key_recycled(key, &nfa, &params, &policy).unwrap();
        assert!(!recycled, "healthy hit is not a recycle");
    }

    #[test]
    fn construction_error_leaves_cache_intact() {
        let mut registry = ServiceRegistry::new(2);
        let mut bad = Params::for_session(0.3, 0.1, 1, 4);
        bad.eps = -1.0;
        let err = registry.session(&all_words(), &bad, &SessionPolicy::Serial { seed: 0 });
        assert!(err.is_err());
        assert!(registry.is_empty());
        assert_eq!(registry.stats().sessions_created, 0);
    }
}
