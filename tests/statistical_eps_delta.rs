//! Statistical (ε, δ) harness: the FPRAS contract as a measured fact.
//!
//! Theorem 3 promises `Pr[|N̂ − N| > ε·N] ≤ δ` per run. The harness
//! below turns that into a falsifiable CI check: run `N` seeded trials
//! per fixture against the exact DP count, count empirical failures, and
//! reject only when the failure count exceeds a one-sided
//! Chernoff–Hoeffding envelope around `N·δ` — so a correct
//! implementation flakes with probability at most [`ALPHA`] per
//! assertion, while a broken estimator (biased counts, mis-scaled
//! trial budgets, an RNG-sharing bug in the batched layer) blows
//! through the envelope quickly.
//!
//! Every estimator path the engine exposes runs over the same fixtures:
//! the Serial and Deterministic policies, and both again over the nROBP
//! substrate (D14), whose node graph doubles as its exact oracle. The small smoke versions run in tier-1; the heavyweight
//! versions are `#[ignore]`d locally and executed by the CI job
//! `cargo test --release -- --ignored`.

use fpras_automata::exact::count_exact;
use fpras_automata::robp::Robp;
use fpras_automata::Nfa;
use fpras_core::{run_parallel, FprasRun, Params};
use fpras_workloads::{families, random_robp, RandomRobpConfig};
use rand::{rngs::SmallRng, SeedableRng};

/// Per-assertion false-failure budget of the harness itself.
const ALPHA: f64 = 1e-6;

/// One counting instance with exact ground truth.
struct Fixture {
    label: &'static str,
    nfa: Nfa,
    n: usize,
    exact: f64,
}

fn fixtures() -> Vec<Fixture> {
    [
        ("contains-11", families::contains_substring(&[1, 1]), 10usize),
        ("ones-mod-4", families::ones_mod_k(4), 10),
        ("div-by-5", families::divisible_by(5), 10),
        ("no-consec-ones", families::no_consecutive_ones(), 12),
    ]
    .into_iter()
    .map(|(label, nfa, n)| {
        let exact = count_exact(&nfa, n).expect("exact DP").to_f64();
        assert!(exact > 0.0, "{label}: fixture must be non-empty");
        Fixture { label, nfa, n, exact }
    })
    .collect()
}

/// Largest failure count a correct `δ`-bounded estimator produces over
/// `trials` runs, except with probability ≤ [`ALPHA`]: the Hoeffding
/// bound `Pr[X ≥ N·δ + t] ≤ exp(−2t²/N)` solved for `t`.
fn max_failures(trials: usize, delta: f64) -> usize {
    let n = trials as f64;
    let t = (n * (1.0 / ALPHA).ln() / 2.0).sqrt();
    (n * delta + t).floor() as usize
}

/// An estimator path under test: returns the estimate for one seed.
type Estimator = dyn Fn(&Nfa, usize, &Params, u64) -> f64;

/// Every engine path the harness locks down, as (name, estimator).
fn estimator_paths() -> Vec<(&'static str, Box<Estimator>)> {
    let serial = |nfa: &Nfa, n: usize, params: &Params, seed: u64| {
        let mut rng = SmallRng::seed_from_u64(seed);
        FprasRun::run(nfa, n, params, &mut rng).expect("run").estimate().to_f64()
    };
    let deterministic = |nfa: &Nfa, n: usize, params: &Params, seed: u64| {
        run_parallel(nfa, n, params, seed, 4).expect("run").estimate().to_f64()
    };
    vec![("serial", Box::new(serial)), ("deterministic", Box::new(deterministic))]
}

/// Runs `trials` seeded runs of every estimator path on every fixture
/// and asserts the empirical failure rate respects the Chernoff
/// envelope. Seeds are `seed_base + trial` so reruns are reproducible.
fn run_harness(trials: usize, eps: f64, delta: f64, seed_base: u64) {
    let allowed = max_failures(trials, delta);
    assert!(
        allowed < trials,
        "vacuous harness: {trials} trials cannot violate an allowance of {allowed} — raise trials"
    );
    for fx in fixtures() {
        let params = Params::practical(eps, delta, fx.nfa.num_states(), fx.n);
        for (path, estimate) in estimator_paths() {
            let failures = (0..trials)
                .filter(|&t| {
                    let est = estimate(&fx.nfa, fx.n, &params, seed_base + t as u64);
                    (est - fx.exact).abs() / fx.exact > eps
                })
                .count();
            assert!(
                failures <= allowed,
                "{}/{path}: {failures}/{trials} runs failed ε = {eps} \
                 (allowed {allowed} at δ = {delta}, α = {ALPHA})",
                fx.label
            );
        }
    }
}

/// One nROBP instance with exact ground truth. The node graph doubles
/// as the exact oracle: `L(P) = L(to_nfa())` restricted to length
/// `depth`, so the exact DP prices every program.
struct RobpFixture {
    label: &'static str,
    robp: Robp,
    exact: f64,
}

fn robp_fixtures() -> Vec<RobpFixture> {
    let mut out: Vec<RobpFixture> = [
        ("robp-contains-11", families::contains_substring(&[1, 1]), 8usize),
        ("robp-ones-mod-4", families::ones_mod_k(4), 8),
    ]
    .into_iter()
    .map(|(label, nfa, n)| RobpFixture {
        label,
        robp: Robp::from_nfa(&nfa, n).expect("non-empty slice"),
        exact: 0.0,
    })
    .collect();
    // A genuinely branching random program (not an NFA re-encoding).
    out.push(RobpFixture {
        label: "robp-rand-8x4",
        robp: random_robp(&RandomRobpConfig::default(), &mut SmallRng::seed_from_u64(23)),
        exact: 0.0,
    });
    for fx in &mut out {
        fx.exact = count_exact(&fx.robp.to_nfa(), fx.robp.depth()).expect("exact DP").to_f64();
        assert!(fx.exact > 0.0, "{}: fixture must be non-empty", fx.label);
    }
    out
}

/// An nROBP estimator path under test, mirroring [`Estimator`].
type RobpEstimator = dyn Fn(&Robp, &Params, u64) -> f64;

/// The substrate-generic paths over the nROBP front-end: both policies.
fn robp_estimator_paths() -> Vec<(&'static str, Box<RobpEstimator>)> {
    let serial = |robp: &Robp, params: &Params, seed: u64| {
        let mut rng = SmallRng::seed_from_u64(seed);
        FprasRun::run(robp, robp.depth(), params, &mut rng).expect("run").estimate().to_f64()
    };
    let deterministic = |robp: &Robp, params: &Params, seed: u64| {
        run_parallel(robp, robp.depth(), params, seed, 4).expect("run").estimate().to_f64()
    };
    vec![("robp-serial", Box::new(serial)), ("robp-deterministic", Box::new(deterministic))]
}

/// [`run_harness`] over the nROBP substrate: same Chernoff envelope,
/// same seeding discipline, exact counts from the node-graph oracle.
fn run_robp_harness(trials: usize, eps: f64, delta: f64, seed_base: u64) {
    let allowed = max_failures(trials, delta);
    assert!(
        allowed < trials,
        "vacuous harness: {trials} trials cannot violate an allowance of {allowed} — raise trials"
    );
    for fx in robp_fixtures() {
        let params = Params::practical(eps, delta, fx.robp.num_nodes(), fx.robp.depth());
        for (path, estimate) in robp_estimator_paths() {
            let failures = (0..trials)
                .filter(|&t| {
                    let est = estimate(&fx.robp, &params, seed_base + t as u64);
                    (est - fx.exact).abs() / fx.exact > eps
                })
                .count();
            assert!(
                failures <= allowed,
                "{}/{path}: {failures}/{trials} runs failed ε = {eps} \
                 (allowed {allowed} at δ = {delta}, α = {ALPHA})",
                fx.label
            );
        }
    }
}

/// Tier-1 smoke: few trials, loose ε — verifies the harness machinery
/// and catches gross estimator breakage (e.g. an estimator that always
/// misses) without slowing `cargo test`. Ten trials is the smallest
/// count whose Chernoff allowance (9) is still violable.
#[test]
fn eps_delta_smoke() {
    run_harness(10, 0.35, 0.1, 41_000);
}

/// Tier-1 smoke for the nROBP estimator grid.
#[test]
fn robp_eps_delta_smoke() {
    run_robp_harness(10, 0.35, 0.1, 44_000);
}

/// The full nROBP statistical lockdown (CI: `--ignored` release job).
#[test]
#[ignore = "statistical heavyweight; run in release via CI's --ignored job"]
fn robp_eps_delta_full() {
    run_robp_harness(60, 0.3, 0.1, 45_000);
}

/// The full statistical lockdown (CI: `cargo test --release -- --ignored`).
#[test]
#[ignore = "statistical heavyweight; run in release via CI's --ignored job"]
fn eps_delta_full() {
    run_harness(60, 0.3, 0.1, 42_000);
}

/// Tighter accuracy at a second operating point (ε = 0.2), full mode
/// only — guards against error budgets that only work at loose ε.
#[test]
#[ignore = "statistical heavyweight; run in release via CI's --ignored job"]
fn eps_delta_full_tight() {
    run_harness(40, 0.2, 0.1, 43_000);
}

#[test]
fn chernoff_envelope_shape() {
    // The envelope must sit above the mean and grow sublinearly.
    assert!(max_failures(10, 0.1) >= 1);
    assert!(max_failures(100, 0.1) >= 10);
    let small = max_failures(100, 0.1) as f64 / 100.0;
    let large = max_failures(10_000, 0.1) as f64 / 10_000.0;
    assert!(large < small, "relative slack must shrink with trials");
    // And never exceed the trial count.
    assert!(max_failures(10, 0.9) <= 10 + 9);
}
