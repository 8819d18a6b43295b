//! `perfbench` — the repository's benchmark.
//!
//! ```text
//! perfbench --workload <count-wide|serve-mix> --seed N --seconds S --trace <0|1>
//! perfbench --quick
//! ```
//!
//! Each workload is generated from `--seed`, handed to the program as
//! automaton text, and run as repeated *units* of identical work: one
//! untimed warm-up unit, then timed units until `--seconds` have passed.
//! Every operation is checked (estimates against exact counts, sampled
//! words against the automaton), and every unit's membership ops and
//! output bits must equal the first unit's. `--trace 0` prints the
//! end-to-end metrics; `--trace 1` runs separately with spans and a
//! trace sink installed and prints the per-layer metrics. The first
//! stdout line fingerprints the host and the last is the result object.
//! `--quick` is a self-test at toy size. See `README.md` next to this
//! file for the workloads and the layer-to-metric map.

mod count;
mod host;
mod serve;
mod stats;
mod trace;

use count::CountWorkload;
use fpras_core::RunStats;
use serve::ServeWorkload;
use stats::{median, nearest_rank, ratio, Digest};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use trace::{Probe, Spans, Tracer};

/// End-to-end metrics (name, unit), printed by `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("count_s", "s"),
    ("membership_ops", "count"),
    ("qps", "1/s"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("sample_p50_us", "us"),
    ("sample_p99_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("success_rate", "ratio"),
];

/// Per-layer metrics (name, unit), printed by `--trace 1`.
const PER_LAYER: &[(&str, &str)] = &[
    ("engine.sample_s", "s"),
    ("engine.count_s", "s"),
    ("engine.share_s", "s"),
    ("engine.plan_s", "s"),
    ("engine.merge_s", "s"),
    ("engine.unattributed_s", "s"),
    ("engine.cells_processed", "count"),
    ("engine.levels", "count"),
    ("sampler.calls", "count"),
    ("sampler.success_rate", "ratio"),
    ("sampler.fail_phi", "count"),
    ("sampler.fail_rejected", "count"),
    ("sampler.samples_stored", "count"),
    ("sampler.padded_entries", "count"),
    ("memo.hits", "count"),
    ("memo.misses", "count"),
    ("memo.hit_rate", "ratio"),
    ("memo.snapshots", "count"),
    ("memo.entries_shared", "count"),
    ("memo.overlay_entries", "count"),
    ("intern.hits", "count"),
    ("intern.distinct_frontiers", "count"),
    ("intern.arena_bytes", "bytes"),
    ("appunion.calls", "count"),
    ("appunion.ops_per_call", "count"),
    ("batch.groups_formed", "count"),
    ("batch.cells_deduped", "count"),
    ("batch.unions_run", "count"),
    ("batch.dedup_rate", "ratio"),
    ("pool.parallel_passes", "count"),
    ("pool.sequential_passes", "count"),
    ("pool.steals", "count"),
    ("pool.ops_balance_ratio", "ratio"),
    ("pool.speedup", "ratio"),
    ("share.frontiers_preestimated", "count"),
    ("share.preestimate_hits", "count"),
    ("registry.lookup_ns", "ns"),
    ("registry.sessions_created", "count"),
    ("registry.session_hits", "count"),
    ("registry.sessions_evicted", "count"),
    ("quota.admit_ns", "ns"),
    ("quota.rejections", "count"),
    ("session.estimate_ns", "ns"),
    ("session.sample_ns", "ns"),
    ("session.levels_built", "count"),
    ("session.levels_reused", "count"),
    ("session.reuse_rate", "ratio"),
    ("session.sample_success_rate", "ratio"),
    ("automata.parse_s", "s"),
    ("automata.normalized_states", "count"),
    ("obs.trace_overhead", "s"),
];

/// Workload names, in the order `--quick` runs them.
const WORKLOADS: [&str; 2] = ["count-wide", "serve-mix"];

/// Set-ups timed before each unit; `setup_s` is their median.
const SETUPS_PER_UNIT: usize = 201;

/// Sub-seeds of `--seed` that units take in turn: unit `i` runs variant
/// `i mod VARIANTS`. One engine seed fixes how many attempts each sample
/// draw takes, and draw latencies bunch at whole numbers of attempts, so
/// a latency quantile of one seed's draws jumps from seed to seed. A run
/// mixes several seeds. Odd, so that each variant runs on every CPU of
/// the rotation.
const VARIANTS: u64 = 5;

/// What one unit of work did.
#[derive(Debug, Default)]
pub struct Unit {
    /// Wall time spent building FPRAS levels: the count calls, or the
    /// serve queries that extended a session.
    pub count_wall: Duration,
    /// Membership ops spent building levels.
    pub ops: u64,
    /// Digest of every estimate and sampled word, in order.
    pub digest: Digest,
    /// Latency of every request of the closed loop, in nanoseconds.
    pub query_ns: Vec<u64>,
    /// Latency of every sample request, in nanoseconds.
    pub sample_ns: Vec<u64>,
    /// Summed latency of all requests.
    pub busy: Duration,
    /// Operations checked.
    pub attempted: u64,
    /// Operations whose output failed its check.
    pub failed: u64,
    /// Engine counters, merged over the unit's runs or sessions.
    pub stats: RunStats,
    /// Readings only the workload can take (levels, sessions, quota).
    pub layer: BTreeMap<&'static str, f64>,
    /// The CPU the unit's single-threaded work ran on, if pinned.
    pub cpu: Option<usize>,
    /// Which of the [`VARIANTS`] sub-seeds the unit ran.
    pub variant: u64,
    /// Median time of the set-ups timed before the unit.
    pub setup_s: f64,
    /// Median parse time within those set-ups.
    pub parse_s: f64,
}

impl Unit {
    /// Records one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// A workload the run loop can set up and run unit by unit.
pub trait Workload: Sized {
    /// Program-side state one unit consumes.
    type Ready;
    /// Parses the inputs and builds that state; also returns the time
    /// spent parsing.
    fn setup(&self) -> (Self::Ready, Duration);
    /// Runs one unit of sub-seed `variant`, recording spans when `probe`
    /// is set. A threaded workload runs its single-threaded parts on
    /// `cpu` when one is given.
    fn unit(
        &self,
        ready: Self::Ready,
        variant: u64,
        probe: Option<Probe<'_>>,
        cpu: Option<usize>,
    ) -> Unit;
    /// Threads a unit runs on.
    fn threads(&self) -> usize;
    /// The same workload at one thread, when it normally runs threaded.
    fn one_thread(&self) -> Option<Self> {
        None
    }
}

/// One run's result: checked operation counts and named metrics.
struct Report {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<&'static str, f64>,
    /// Lines printed ahead of the result (sample counts, trace folds).
    notes: Vec<String>,
}

impl Report {
    fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line: every metric of `table`, in table order.
    fn json(&self, table: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let value = self.metrics.get(name).copied().unwrap_or(f64::NAN);
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Names in `table` this report lacks or holds as a non-finite value,
    /// and names it holds that `table` does not list.
    fn mismatches(&self, table: &[(&str, &str)]) -> Vec<String> {
        let mut bad: Vec<String> = table
            .iter()
            .filter(|(name, _)| !self.metrics.get(name).is_some_and(|v| v.is_finite()))
            .map(|(name, _)| format!("missing or non-finite: {name}"))
            .collect();
        bad.extend(
            self.metrics
                .keys()
                .filter(|k| !table.iter().any(|(name, _)| name == *k))
                .map(|k| format!("not in the metric table: {k}")),
        );
        bad
    }
}

/// Tallies checks across units, including the sibling comparison: every
/// unit repeats the work of the first unit of its variant, so its
/// membership ops and output digest must match bit for bit.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    reference: BTreeMap<u64, (u64, Digest)>,
}

impl Tally {
    fn add(&mut self, unit: &Unit) {
        self.attempted += unit.attempted;
        self.failed += unit.failed;
        match self.reference.get(&unit.variant).copied() {
            None => {
                self.reference.insert(unit.variant, (unit.ops, unit.digest));
            }
            Some(reference) => {
                self.attempted += 1;
                self.failed += u64::from(reference != (unit.ops, unit.digest));
            }
        }
    }
}

/// The CPU for step `i` of a rotation over `cpus`; `None` when there is
/// at most one CPU to rotate over.
///
/// The virtual CPUs of a shared host can differ in speed by more than
/// half, and which one the scheduler picks would otherwise decide a
/// run's figures. Running step `i`'s single-threaded work on CPU
/// `i mod k` samples every CPU equally, and [`unit_median`] averages
/// their medians.
fn rotation_cpu(cpus: &[usize], i: usize) -> Option<usize> {
    (cpus.len() > 1).then(|| cpus[i % cpus.len()])
}

/// Runs units until `budget` has passed and at least `min_units` ran.
/// With `rotate`, unit `i`'s single-threaded work runs on CPU `i mod k`:
/// the whole unit for single-threaded workloads, the parts the workload
/// pins itself otherwise.
fn run_units<W: Workload>(
    w: &W,
    budget: Duration,
    min_units: usize,
    rotate: bool,
    tally: &mut Tally,
    tracer: Option<&Tracer>,
    spans: &mut Spans,
) -> Vec<Unit> {
    let cpus = if rotate { host::allowed_cpus() } else { Vec::new() };
    let start = Instant::now();
    let mut units = Vec::new();
    while units.len() < min_units || start.elapsed() < budget {
        let cpu = rotation_cpu(&cpus, units.len());
        let variant = units.len() as u64 % VARIANTS;
        let (ready, setup_s, parse_s) = host::on_cpu(cpu, || time_setups(w));
        let probe = tracer.map(|tracer| Probe { tracer, spans: &mut *spans });
        let unit = if w.threads() == 1 {
            host::on_cpu(cpu, || w.unit(ready, variant, probe, cpu))
        } else {
            w.unit(ready, variant, probe, cpu)
        };
        let unit = Unit { cpu, variant, setup_s, parse_s, ..unit };
        tally.add(&unit);
        units.push(unit);
    }
    units
}

/// Mean over CPUs of the median over that CPU's units (the plain median
/// when units were not pinned).
fn unit_median(units: &[Unit], f: impl Fn(&Unit) -> f64) -> f64 {
    let mut by_cpu: BTreeMap<Option<usize>, Vec<f64>> = BTreeMap::new();
    for u in units {
        by_cpu.entry(u.cpu).or_default().push(f(u));
    }
    let medians: Vec<f64> = by_cpu.values().filter_map(|v| median(v)).collect();
    medians.iter().sum::<f64>() / medians.len() as f64
}

/// Mean over CPUs of the nearest-rank `q`-quantile of the latencies of
/// all that CPU's units pooled, in µs.
///
/// A unit's draws take a fraction of a second, so one unit's quantile
/// lands on whichever speed the shared host had in that moment; taken
/// unit by unit, the quantiles split into a fast and a slow group, and
/// a median over units snaps to one or the other. Pooling weighs every
/// moment of the run by the samples taken in it.
fn pooled_quantile_us(units: &[Unit], f: impl Fn(&Unit) -> &[u64], q: f64) -> f64 {
    let mut by_cpu: BTreeMap<Option<usize>, Vec<u64>> = BTreeMap::new();
    for u in units {
        by_cpu.entry(u.cpu).or_default().extend_from_slice(f(u));
    }
    let quantiles: Vec<f64> =
        by_cpu.values_mut().filter_map(|v| nearest_rank(v, q)).map(|ns| ns as f64 / 1e3).collect();
    quantiles.iter().sum::<f64>() / quantiles.len() as f64
}

/// Runs `SETUPS_PER_UNIT` set-ups; returns the last one's state with the
/// median set-up and parse times. Set-ups are timed next to every unit,
/// so that they sample the host across the whole run rather than in one
/// burst.
fn time_setups<W: Workload>(w: &W) -> (W::Ready, f64, f64) {
    let (mut setup, mut parse) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..SETUPS_PER_UNIT {
        drop(last.take());
        let start = Instant::now();
        let (ready, parse_time) = w.setup();
        setup.push(start.elapsed().as_secs_f64());
        parse.push(parse_time.as_secs_f64());
        last = Some(ready);
    }
    let ready = last.expect("at least one set-up");
    (ready, median(&setup).unwrap_or(f64::NAN), median(&parse).unwrap_or(f64::NAN))
}

/// The untraced run: end-to-end metrics.
fn end_to_end<W: Workload>(w: &W, seconds: f64, min_units: usize) -> Report {
    let mut tally = Tally::default();
    let mut spans = Spans::default();
    // A warm-up unit. Every unit repeats the same work, so the program's
    // peak memory is reached by its end; reading it here keeps the
    // benchmark's own latency logs, which grow with the number of units,
    // out of the figure.
    run_units(w, Duration::ZERO, 1, false, &mut tally, None, &mut spans);
    let peak_rss_mb = host::peak_rss_mb().unwrap_or(f64::NAN);
    let budget = Duration::from_secs_f64(seconds);
    let units = run_units(w, budget, min_units, true, &mut tally, None, &mut spans);
    let metrics = BTreeMap::from([
        ("count_s", unit_median(&units, |u| u.count_wall.as_secs_f64())),
        ("membership_ops", unit_median(&units, |u| u.ops as f64)),
        ("qps", unit_median(&units, |u| u.query_ns.len() as f64 / u.busy.as_secs_f64())),
        ("query_p50_us", pooled_quantile_us(&units, |u| &u.query_ns, 0.50)),
        ("query_p99_us", pooled_quantile_us(&units, |u| &u.query_ns, 0.99)),
        ("sample_p50_us", pooled_quantile_us(&units, |u| &u.sample_ns, 0.50)),
        ("sample_p99_us", pooled_quantile_us(&units, |u| &u.sample_ns, 0.99)),
        ("setup_s", unit_median(&units, |u| u.setup_s)),
        ("peak_rss_mb", peak_rss_mb),
        ("success_rate", 1.0 - ratio(tally.failed, tally.attempted)),
    ]);
    let unit_s: Vec<String> = units
        .iter()
        .map(|u| match u.cpu {
            Some(cpu) => format!("[{}, {cpu}]", u.count_wall.as_secs_f64()),
            None => u.count_wall.as_secs_f64().to_string(),
        })
        .collect();
    let notes = vec![format!(
        "{{\"units\": {}, \"unit_count_s_cpu\": [{}], \"queries_per_unit\": {}, \
         \"samples_per_unit\": {}, \"setups_per_unit\": {SETUPS_PER_UNIT}}}",
        units.len(),
        unit_s.join(", "),
        units[0].query_ns.len(),
        units[0].sample_ns.len()
    )];
    Report { attempted: tally.attempted, failed: tally.failed, metrics, notes }
}

/// The traced run: untraced units for a `count_s` baseline, then traced
/// units for the per-layer metrics, then (threaded workloads) a
/// one-thread unit for the pool's speed-up.
fn per_layer<W: Workload>(w: &W, seconds: f64, min_units: usize) -> Report {
    let half = Duration::from_secs_f64(seconds / 2.0);
    let mut tally = Tally::default();
    let mut spans = Spans::default();
    run_units(w, Duration::ZERO, 1, false, &mut tally, None, &mut spans); // warm-up unit
    let plain = run_units(w, half, min_units.div_ceil(2), true, &mut tally, None, &mut spans);
    let tracer = Tracer::install();
    let traced = run_units(w, half, 1, true, &mut tally, Some(&tracer), &mut spans);
    let fold = tracer.take();
    drop(tracer);
    let count_s = |units: &[Unit]| unit_median(units, |u| u.count_wall.as_secs_f64());
    let speedup = match w.one_thread() {
        Some(single) => {
            let mut single_tally = Tally::default();
            let one =
                run_units(&single, Duration::ZERO, 1, false, &mut single_tally, None, &mut spans);
            tally.attempted += single_tally.attempted;
            tally.failed += single_tally.failed;
            // `one` ran variant 0; compare it with the same work threaded.
            let threaded: Vec<f64> = plain
                .iter()
                .filter(|u| u.variant == 0)
                .map(|u| u.count_wall.as_secs_f64())
                .collect();
            count_s(&one) / median(&threaded).unwrap_or(f64::NAN)
        }
        None => 1.0,
    };

    // Counters repeat exactly from unit to unit of one variant and are
    // read from the last traced unit; times are per-unit means.
    let unit = traced.last().expect("at least one traced unit");
    let s = &unit.stats;
    let layer = |name: &str| unit.layer.get(name).copied().unwrap_or(0.0);
    let span_count: usize = spans.by_layer.values().map(Vec::len).sum();
    let per_unit = |total: f64| total / traced.len() as f64;
    tally.attempted += 1;
    tally.failed += u64::from(spans.closure_violations > 0);
    let metrics = BTreeMap::from([
        ("engine.sample_s", per_unit(fold.phase_s("sample"))),
        ("engine.count_s", per_unit(fold.phase_s("count"))),
        ("engine.share_s", per_unit(fold.phase_s("share"))),
        ("engine.plan_s", per_unit(fold.phase_s("plan"))),
        ("engine.merge_s", per_unit(fold.phase_s("merge"))),
        ("engine.unattributed_s", per_unit(spans.unattributed_s())),
        ("engine.cells_processed", s.cells_processed as f64),
        ("engine.levels", layer("engine.levels")),
        ("sampler.calls", s.sample_calls as f64),
        ("sampler.success_rate", ratio(s.sample_success, s.sample_calls)),
        ("sampler.fail_phi", s.fail_phi_gt_one as f64),
        ("sampler.fail_rejected", s.fail_rejected as f64),
        ("sampler.samples_stored", s.samples_stored as f64),
        ("sampler.padded_entries", s.padded_entries as f64),
        ("memo.hits", s.memo_hits as f64),
        ("memo.misses", s.memo_misses as f64),
        ("memo.hit_rate", s.memo_hit_rate()),
        ("memo.snapshots", s.memo.snapshots as f64),
        ("memo.entries_shared", s.memo.entries_shared as f64),
        ("memo.overlay_entries", s.memo.overlay_entries as f64),
        ("intern.hits", s.intern.intern_hits as f64),
        ("intern.distinct_frontiers", s.intern.distinct_frontiers as f64),
        ("intern.arena_bytes", s.intern.arena_bytes as f64),
        ("appunion.calls", s.appunion_calls as f64),
        ("appunion.ops_per_call", ratio(s.membership_ops, s.appunion_calls)),
        ("batch.groups_formed", s.batch.groups_formed as f64),
        ("batch.cells_deduped", s.batch.cells_deduped as f64),
        ("batch.unions_run", s.batch.unions_run as f64),
        ("batch.dedup_rate", s.batch.dedup_rate()),
        ("pool.parallel_passes", s.pool.parallel_passes as f64),
        ("pool.sequential_passes", s.pool.sequential_passes as f64),
        ("pool.steals", s.pool.steals as f64),
        ("pool.ops_balance_ratio", s.pool.ops_balance_ratio().unwrap_or(0.0)),
        ("pool.speedup", speedup),
        ("share.frontiers_preestimated", s.share.frontiers_preestimated as f64),
        ("share.preestimate_hits", s.share.preestimate_hits as f64),
        ("registry.lookup_ns", spans.median_ns("registry")),
        ("registry.sessions_created", layer("registry.sessions_created")),
        ("registry.session_hits", layer("registry.session_hits")),
        ("registry.sessions_evicted", layer("registry.sessions_evicted")),
        ("quota.admit_ns", spans.median_ns("quota")),
        ("quota.rejections", layer("quota.rejections")),
        ("session.estimate_ns", spans.median_ns("session.estimate")),
        ("session.sample_ns", spans.median_ns("session.sample")),
        ("session.levels_built", layer("session.levels_built")),
        ("session.levels_reused", layer("session.levels_reused")),
        ("session.reuse_rate", layer("session.reuse_rate")),
        ("session.sample_success_rate", layer("session.sample_success_rate")),
        ("automata.parse_s", unit_median(&plain, |u| u.parse_s)),
        ("automata.normalized_states", layer("automata.normalized_states")),
        ("obs.trace_overhead", count_s(&traced) - count_s(&plain)),
    ]);
    let notes = vec![
        format!(
            "{{\"units_plain\": {}, \"units_traced\": {}, \"spans\": {span_count}, \
             \"closure_violations\": {}}}",
            plain.len(),
            traced.len(),
            spans.closure_violations
        ),
        format!("{{\"phase_us_by_level_all_traced_units\": {}}}", fold.by_level_json()),
    ];
    Report { attempted: tally.attempted, failed: tally.failed, metrics, notes }
}

fn run_workload(name: &str, seed: u64, seconds: f64, traced: bool, quick: bool) -> Option<Report> {
    // Quick runs reach a second unit of one variant, so the sibling check runs.
    let min_units = if quick { VARIANTS as usize + 1 } else { 3 };
    fn go<W: Workload>(w: W, seconds: f64, traced: bool, min_units: usize) -> Report {
        if traced {
            per_layer(&w, seconds, min_units)
        } else {
            end_to_end(&w, seconds, min_units)
        }
    }
    Some(match name {
        "count-wide" => go(CountWorkload::wide(seed, quick), seconds, traced, min_units),
        "serve-mix" => go(ServeWorkload::mix(seed, quick), seconds, traced, min_units),
        _ => return None,
    })
}

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn declared_metrics(json: &str, key: &str) -> Vec<(String, String)> {
    let Some(start) = json.find(&format!("\"{key}\"")) else {
        return Vec::new();
    };
    let body = &json[start..];
    let body = &body[body.find('[').unwrap_or(0)..body.find(']').unwrap_or(0)];
    let field = |obj: &str, f: &str| -> Option<String> {
        let rest = &obj[obj.find(&format!("\"{f}\""))? + f.len() + 2..];
        let rest = &rest[rest.find('"')? + 1..];
        Some(rest[..rest.find('"')?].to_string())
    };
    body.split('{').filter_map(|obj| Some((field(obj, "name")?, field(obj, "unit")?))).collect()
}

/// Runs every workload at toy size in both modes and checks that each
/// declared metric is printed with its declared unit and that no
/// operation failed.
fn self_test() -> Result<(), String> {
    let json = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e} (run from the repository root)"))?;
    for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let declared = declared_metrics(&json, key);
        let ours: Vec<(String, String)> =
            table.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
        if declared != ours {
            return Err(format!("BENCHMARK.json {key} differs from the metrics printed"));
        }
    }
    for name in WORKLOADS {
        for (traced, table) in [(false, END_TO_END), (true, PER_LAYER)] {
            let report = run_workload(name, 7, 0.0, traced, true).expect("known workload");
            let bad = report.mismatches(table);
            if !bad.is_empty() {
                return Err(format!("{name} trace={}: {}", u8::from(traced), bad.join("; ")));
            }
            if report.failed > 0 {
                return Err(format!(
                    "{name} trace={}: {} of {} operations failed",
                    u8::from(traced),
                    report.failed,
                    report.attempted
                ));
            }
            println!("{name} trace={}: ok ({} operations)", u8::from(traced), report.attempted);
        }
    }
    Ok(())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut values: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => flag.as_str(),
            other => return Err(format!("unknown argument {other}")),
        };
        let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
        values.insert(key, value);
    }
    let get = |k: &str| values.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let seconds: f64 = get("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(0.0..=3600.0).contains(&seconds) {
        return Err("--seconds must be within 0..=3600".to_string());
    }
    Ok(Args {
        workload: get("--workload")?.to_string(),
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        traced: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--quick"] {
        println!("{}", host::fingerprint_json());
        match self_test() {
            Ok(()) => println!("self-test passed"),
            Err(e) => {
                eprintln!("self-test failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed N --seconds S --trace <0|1> | --quick",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    println!("{}", host::fingerprint_json());
    let Some(report) = run_workload(&args.workload, args.seed, args.seconds, args.traced, false)
    else {
        eprintln!(
            "perfbench: unknown workload {} (one of {})",
            args.workload,
            WORKLOADS.join(", ")
        );
        std::process::exit(2);
    };
    let table = if args.traced { PER_LAYER } else { END_TO_END };
    let bad = report.mismatches(table);
    if !bad.is_empty() {
        eprintln!("perfbench: {}", bad.join("; "));
        std::process::exit(1);
    }
    for note in &report.notes {
        println!("{note}");
    }
    println!("{}", report.json(table));
}
