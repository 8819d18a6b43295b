//! The serving workload: a closed loop with one client replaying a
//! seeded multi-tenant query trace through the serve data path — registry
//! lookup, level admission, then the verb — without the line protocol.

use crate::count::within_eps;
use crate::stats::{mix, ratio};
use crate::trace::{span, Probe};
use crate::{Unit, Workload};
use fpras_automata::{count_exact, parse, Nfa};
use fpras_core::service::{
    AdmissionController, QuotaConfig, ServiceRegistry, SessionKey, SessionPolicy,
};
use fpras_core::Params;
use fpras_numeric::ExtFloat;
use fpras_workloads::{families, query_trace, random_nfa, QueryTraceConfig, RandomNfaConfig};
use rand::{rngs::SmallRng, RngExt, SeedableRng};
use std::time::{Duration, Instant};

/// Generator seed of the random tenant.
const RANDOM_TENANT_SEED: u64 = 0x7E;

/// One query of the replayed trace.
#[derive(Debug, Clone, Copy)]
struct Query {
    tenant: usize,
    len: usize,
    sample: bool,
}

/// `serve-mix`: the tenants, and the query trace generated from the seed.
#[derive(Debug, Clone)]
pub struct ServeWorkload {
    /// Tenant automata, as the text `open NAME --file F` reads.
    texts: Vec<String>,
    /// `|L(A_ℓ)|` per tenant and length, for the ε check.
    exact: Vec<Vec<ExtFloat>>,
    queries: Vec<Query>,
    max_len: usize,
    eps: f64,
    seed: u64,
}

impl ServeWorkload {
    /// Four tenants — contains-11, ones-mod-4, divisible-by-5 and one
    /// fixed draw of a random NFA — each behind a Serial session, with
    /// the registry sized to hold them all. The seed drives the query
    /// trace, the verbs, the session seeds and the sample draws; the
    /// tenants stay the same, because the random tenant's build cost
    /// swings by ±10% between draws and would drown the signal.
    pub fn mix(seed: u64, quick: bool) -> ServeWorkload {
        let (queries, max_len) = if quick { (2_000, 10) } else { (100_000, 12) };
        let config = RandomNfaConfig { states: 12, alphabet: 2, density: 2.0, accepting: 2 };
        let tenants = [
            families::contains_substring(&[1, 1]),
            families::ones_mod_k(4),
            families::divisible_by(5),
            random_nfa(&config, &mut SmallRng::seed_from_u64(RANDOM_TENANT_SEED)),
        ];
        let trace_config = QueryTraceConfig {
            queries,
            automata: tenants.len(),
            min_len: 4,
            max_len,
            repeat_bias: 0.6,
            hot_automaton_bias: 0.5,
        };
        let mut rng = SmallRng::seed_from_u64(mix(seed, 0x10AD));
        let trace = query_trace(&trace_config, &mut rng);
        let queries = trace
            .iter()
            .map(|q| Query { tenant: q.automaton, len: q.len, sample: rng.random_bool(0.2) })
            .collect();
        let exact = tenants
            .iter()
            .map(|nfa| {
                (0..=max_len)
                    .map(|n| ExtFloat::from_biguint(&count_exact(nfa, n).expect("small slice")))
                    .collect()
            })
            .collect();
        ServeWorkload {
            texts: tenants.iter().map(parse::to_text).collect(),
            exact,
            queries,
            max_len,
            eps: 0.25,
            seed,
        }
    }
}

/// Open tenants: parsed automata, their sessions in the registry, and
/// the admission controller in front of them.
pub struct Ready {
    nfas: Vec<Nfa>,
    params: Vec<Params>,
    policies: Vec<SessionPolicy>,
    keys: Vec<SessionKey>,
    registry: ServiceRegistry,
    admission: AdmissionController,
}

impl Workload for ServeWorkload {
    type Ready = Ready;

    fn setup(&self) -> (Ready, Duration) {
        let start = Instant::now();
        let nfas: Vec<Nfa> = self
            .texts
            .iter()
            .map(|t| parse::from_text(t).expect("generated text parses"))
            .collect();
        let parse = start.elapsed();
        let params: Vec<Params> = nfas
            .iter()
            .map(|nfa| Params::for_session(self.eps, 0.1, nfa.num_states(), self.max_len))
            .collect();
        let policies: Vec<SessionPolicy> = (0..nfas.len())
            .map(|t| SessionPolicy::Serial { seed: mix(self.seed, 0x5E55 + t as u64) })
            .collect();
        let keys: Vec<SessionKey> =
            (0..nfas.len()).map(|t| SessionKey::new(&nfas[t], &params[t], &policies[t])).collect();
        let mut registry = ServiceRegistry::new(nfas.len());
        let mut admission = AdmissionController::new(QuotaConfig::default());
        for t in 0..nfas.len() {
            admission.admit_session(registry.len()).expect("unlimited quota");
            registry
                .session_with_key(keys[t].clone(), &nfas[t], &params[t], &policies[t])
                .expect("session params are valid");
        }
        (Ready { nfas, params, policies, keys, registry, admission }, parse)
    }

    fn threads(&self) -> usize {
        1
    }

    fn unit(
        &self,
        ready: Ready,
        variant: u64,
        mut probe: Option<Probe<'_>>,
        _cpu: Option<usize>,
    ) -> Unit {
        let Ready { nfas, params, policies, keys, mut registry, mut admission } = ready;
        let (nfas, params, policies, keys) = (&nfas, &params, &policies, &keys);
        let mut unit = Unit::default();
        let mut ledgers = vec![0u64; nfas.len()];
        let mut rng = SmallRng::seed_from_u64(mix(mix(self.seed, variant), 0x5A));
        let (mut samples, mut samples_ok) = (0u64, 0u64);
        for q in &self.queries {
            let t = q.tenant;
            let start = Instant::now();
            let registry = &mut registry;
            let (session, _recycled) = span(&mut probe, "registry", move || {
                registry.session_with_key_recycled(
                    keys[t].clone(),
                    &nfas[t],
                    &params[t],
                    &policies[t],
                )
            })
            .expect("session params are valid");
            let built_before = session.levels_built();
            let needed = q.len.saturating_sub(built_before) as u64;
            if span(&mut probe, "quota", || admission.admit_levels(ledgers[t], needed)).is_err() {
                unit.check(false);
                continue;
            }
            session.set_build_ops_budget(
                admission.per_query_ops_cap(session.run_stats().membership_ops),
            );
            let ok = if q.sample {
                let word = span(&mut probe, "session.sample", || session.sample(q.len, &mut rng));
                let ok = match word {
                    Ok(Some(w)) => {
                        w.symbols().iter().for_each(|&sym| unit.digest.add(u64::from(sym)));
                        w.len() == q.len && nfas[t].accepts(&w)
                    }
                    Ok(None) => self.exact[t][q.len].is_zero(),
                    Err(_) => false,
                };
                samples += 1;
                samples_ok += u64::from(ok);
                ok
            } else {
                let est = span(&mut probe, "session.estimate", || session.estimate(q.len));
                unit.digest.add(est.as_ref().map_or(u64::MAX, |e| e.log2().to_bits()));
                est.is_ok_and(|e| within_eps(&e, &self.exact[t][q.len], self.eps))
            };
            let built = session.levels_built() - built_before;
            ledgers[t] += built as u64;
            let elapsed = start.elapsed();
            let ns = elapsed.as_nanos() as u64;
            unit.query_ns.push(ns);
            if q.sample {
                unit.sample_ns.push(ns);
            }
            if built > 0 {
                unit.count_wall += elapsed;
            }
            unit.check(ok);
        }
        unit.busy = Duration::from_nanos(unit.query_ns.iter().sum());
        for session in registry.sessions() {
            unit.ops += session.run_stats().membership_ops;
            unit.stats.merge(session.run_stats());
            unit.stats.merge(session.query_run_stats());
        }
        let service = registry.stats();
        let totals = registry.session_totals();
        let layer = &mut unit.layer;
        layer.insert("engine.levels", totals.levels_built as f64);
        layer.insert(
            "automata.normalized_states",
            nfas.iter().map(Nfa::num_states).sum::<usize>() as f64,
        );
        layer.insert("registry.sessions_created", service.sessions_created as f64);
        layer.insert("registry.session_hits", service.session_hits as f64);
        layer.insert("registry.sessions_evicted", service.sessions_evicted as f64);
        layer.insert("quota.rejections", admission.stats().quota_rejections() as f64);
        layer.insert("session.levels_built", totals.levels_built as f64);
        layer.insert("session.levels_reused", totals.levels_reused as f64);
        layer.insert("session.reuse_rate", totals.reuse_rate());
        layer.insert("session.sample_success_rate", ratio(samples_ok, samples));
        unit
    }
}
