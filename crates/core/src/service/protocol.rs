//! The `nfa-count serve` line protocol as a library: a typed
//! [`Request`] parsed from one text line, and a [`Server`] whose
//! [`Server::handle`] is the one owner of the serve data path.
//!
//! Every query runs the same order (DESIGN.md §2.4, D13): look the
//! tenant's session up in the [`ServiceRegistry`] (recycling a
//! budget-poisoned one), admit the levels it would build against the
//! tenant's ledger, install the per-query op budget, run the verb, then
//! charge the ledger and count a budget abort. The binary's stdin loop
//! and the bench load harness both drive this one path.
//!
//! A [`Response`] renders the protocol's text lines through `Display`;
//! its data-path answers are typed ([`Answer`]), so in-process callers
//! read estimates and sampled words without parsing text.

use super::{AdmissionController, QuotaConfig, QuotaDenied, ServiceRegistry, SessionKey};
use super::{QuerySession, SessionPolicy, SessionStats};
use crate::obs::{self, JsonlSink, PromText, TraceEvent};
use crate::{FprasError, Params};
use fpras_automata::{parse, regex, Alphabet, Nfa};
use fpras_numeric::ExtFloat;
use rand::{rngs::SmallRng, SeedableRng};
use std::fmt;
use std::io::{self, BufRead, Read};

/// Live sessions a server holds when `max_sessions` is unset (evicted
/// sessions rebuild on demand — eviction is not rejection).
const DEFAULT_REGISTRY_CAPACITY: usize = 8;

/// Largest `COUNT` of one `sample N COUNT` line: its draws are served
/// back to back, so an unbounded count would stall every tenant.
const MAX_SAMPLE_COUNT: usize = 10_000;

/// Largest `AppUnion` trial count per call a served session may imply:
/// it grows as `max_n / eps²` and no op budget can interrupt one call.
/// At `--eps 0.2 --delta 0.05` this admits `--max-n` up to about 2 500.
const MAX_UNION_TRIALS: usize = 1 << 24;

/// Longest protocol line, in bytes before its newline, that
/// [`read_request_line`] accepts. Request lines are short; the cap keeps
/// one endless line from growing the read buffer without bound.
pub const MAX_LINE_BYTES: usize = 1 << 16;

/// Longest automaton file, in bytes, that `--file` reads: room for about
/// 800 000 `trans` lines even with state ids at the
/// [`parse::MAX_STATES`] cap.
pub(crate) const MAX_FILE_BYTES: u64 = 16 << 20;

/// Reads one protocol line into `buf` (cleared first). Returns
/// `Ok(None)` at end of input and `Ok(Some(Err(reason)))` for a line the
/// protocol rejects without parsing it: one longer than
/// [`MAX_LINE_BYTES`] (the rest of it is read and discarded) or one that
/// is not UTF-8. `Err` is a real I/O failure of `input`.
pub fn read_request_line<'b, R: BufRead>(
    input: &mut R,
    buf: &'b mut Vec<u8>,
) -> io::Result<Option<Result<&'b str, String>>> {
    buf.clear();
    input.by_ref().take(MAX_LINE_BYTES as u64 + 1).read_until(b'\n', buf)?;
    if buf.is_empty() {
        return Ok(None);
    }
    if buf.len() > MAX_LINE_BYTES && buf.last() != Some(&b'\n') {
        // Discard the rest of the line in cap-sized pieces.
        while buf.last() != Some(&b'\n') {
            buf.clear();
            if input.by_ref().take(MAX_LINE_BYTES as u64).read_until(b'\n', buf)? == 0 {
                break;
            }
        }
        return Ok(Some(Err(format!("line longer than {MAX_LINE_BYTES} bytes"))));
    }
    Ok(Some(std::str::from_utf8(buf).map_err(|_| "line is not valid UTF-8".to_string())))
}

/// Why [`read_automaton_file`] refused a path.
#[derive(Debug)]
pub(crate) enum FileReadError {
    /// The path is not a regular file (a device, a FIFO, a directory):
    /// reading it could block the serve loop or never end.
    NotRegularFile,
    /// The file holds more than [`MAX_FILE_BYTES`] bytes.
    TooLarge,
    /// Opening or reading the file failed (including invalid UTF-8).
    Io(io::Error),
}

impl fmt::Display for FileReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FileReadError::NotRegularFile => write!(f, "not a regular file"),
            FileReadError::TooLarge => write!(f, "file larger than {MAX_FILE_BYTES} bytes"),
            FileReadError::Io(e) => write!(f, "{e}"),
        }
    }
}

/// Reads an automaton file of at most [`MAX_FILE_BYTES`] bytes. The
/// path's metadata is checked before it is opened, so a device or FIFO
/// is refused without a read.
pub(crate) fn read_automaton_file(path: &str) -> Result<String, FileReadError> {
    let meta = std::fs::metadata(path).map_err(FileReadError::Io)?;
    if !meta.is_file() {
        return Err(FileReadError::NotRegularFile);
    }
    let file = std::fs::File::open(path).map_err(FileReadError::Io)?;
    let mut text = String::new();
    file.take(MAX_FILE_BYTES + 1).read_to_string(&mut text).map_err(FileReadError::Io)?;
    if text.len() as u64 > MAX_FILE_BYTES {
        return Err(FileReadError::TooLarge);
    }
    Ok(text)
}

/// Parses `flag`'s value, naming the flag and the offending token in
/// the error (shared by the `nfa-count` argv parsers and `open`).
pub fn parse_value<T: std::str::FromStr>(flag: &str, raw: Option<&str>) -> Result<T, String> {
    let raw = raw.ok_or_else(|| format!("missing value for {flag}"))?;
    raw.parse::<T>().map_err(|_| format!("invalid value {raw:?} for {flag}"))
}

/// Loads an automaton from a regex over `{0,1}` or a file in the
/// `fpras_automata::parse` format; every failure is an `Err`. A file
/// path that is not a regular file, or holds more than 16 MiB, is
/// refused without reading past the cap.
pub fn load_automaton(regex_pattern: Option<&str>, file: Option<&str>) -> Result<Nfa, String> {
    match (regex_pattern, file) {
        (Some(pattern), None) => regex::compile_regex(pattern, &Alphabet::binary())
            .map_err(|e| format!("cannot compile regex: {e}")),
        (None, Some(path)) => {
            let text = read_automaton_file(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            parse::from_text(&text).map_err(|e| format!("cannot parse {path}: {e}"))
        }
        (Some(_), Some(_)) => Err("--regex and --file are mutually exclusive".to_string()),
        (None, None) => Err("an automaton source (--regex or --file) is required".to_string()),
    }
}

/// Construction inputs of one session. A server's defaults are one of
/// these; `open` flags override it field by field.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// `--regex`: a pattern over the binary alphabet.
    pub regex: Option<String>,
    /// `--file`: a path to an automaton in the text format.
    pub file: Option<String>,
    /// `--eps`: the relative-error target.
    pub eps: f64,
    /// `--delta`: the failure probability.
    pub delta: f64,
    /// `--seed`: the session's master seed.
    pub seed: u64,
    /// `--threads`: `0` = Serial, `T ≥ 1` = Deterministic on `T` workers.
    pub threads: usize,
    /// `--max-n`: the largest servable length (sizes the error split).
    pub max_n: usize,
}

impl Default for TenantSpec {
    fn default() -> Self {
        TenantSpec {
            regex: None,
            file: None,
            eps: 0.2,
            delta: 0.05,
            seed: 42,
            threads: 0,
            max_n: 64,
        }
    }
}

impl TenantSpec {
    /// The session parameters and policy for `nfa`: the one
    /// spec-to-session mapping of `open` and `nfa-count query`.
    pub fn session_inputs(&self, nfa: &Nfa) -> (Params, SessionPolicy) {
        let params = Params::for_session(self.eps, self.delta, nfa.num_states(), self.max_n);
        let policy = if self.threads == 0 {
            SessionPolicy::Serial { seed: self.seed }
        } else {
            SessionPolicy::Deterministic { seed: self.seed, threads: self.threads }
        };
        (params, policy)
    }

    fn apply(&mut self, setting: Setting) {
        match setting {
            Setting::Regex(p) => self.regex = Some(p),
            Setting::File(f) => self.file = Some(f),
            Setting::Eps(v) => self.eps = v,
            Setting::Delta(v) => self.delta = v,
            Setting::Seed(v) => self.seed = v,
            Setting::Threads(v) => self.threads = v,
            Setting::MaxN(v) => self.max_n = v,
        }
    }
}

/// One `open` flag: a [`TenantSpec`] field to override.
#[derive(Debug, Clone, PartialEq)]
pub enum Setting {
    /// `--regex P`.
    Regex(String),
    /// `--file F`.
    File(String),
    /// `--eps E`.
    Eps(f64),
    /// `--delta D`.
    Delta(f64),
    /// `--seed S`.
    Seed(u64),
    /// `--threads T`.
    Threads(usize),
    /// `--max-n N`.
    MaxN(usize),
}

/// A data-path verb: the requests that hit the selected session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    /// `estimate N`.
    Estimate(usize),
    /// `range A B` (`A ≤ B`): one estimate per length.
    Range(usize, usize),
    /// `sample N [COUNT]` (`1 ≤ COUNT ≤ MAX_SAMPLE_COUNT`).
    Sample(usize, usize),
}

/// One parsed protocol line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `open NAME FLAGS…`: compile a named session and select it.
    Open {
        /// The tenant name.
        name: String,
        /// The flags, in line order, over the server's defaults.
        settings: Vec<Setting>,
    },
    /// `use NAME`: select an open session.
    Use(String),
    /// `close NAME`: discard an open session.
    Close(String),
    /// `estimate`, `range` or `sample` on the selected session.
    Query(Query),
    /// `stats`: registry-wide totals and server counters.
    Stats,
    /// `metrics`: a Prometheus text-format snapshot.
    Metrics,
    /// `trace on FILE`: stream JSONL run events to `FILE`.
    TraceOn(String),
    /// `trace off`: flush and close the trace file.
    TraceOff,
    /// `quit` or `exit`.
    Quit,
}

impl Request {
    /// Parses one protocol line: `Ok(None)` for a blank line, `Err`
    /// with the `error:` text for a malformed one. Tokens after a
    /// complete verb are ignored.
    pub fn parse(line: &str) -> Result<Option<Request>, String> {
        let mut words = line.split_whitespace();
        let Some(verb) = words.next() else { return Ok(None) };
        let parse_n = |w: Option<&str>| w.and_then(|s| s.parse::<usize>().ok());
        let request = match verb {
            "open" => {
                let name = match words.next() {
                    Some(name) if !name.starts_with("--") => name.to_string(),
                    _ => return Err("usage: open NAME (--regex P | --file F) [flags]".into()),
                };
                let mut settings = Vec::new();
                while let Some(flag) = words.next() {
                    let value = words.next();
                    let text = |v: Option<&str>| {
                        v.map(str::to_string).ok_or_else(|| format!("missing value for {flag}"))
                    };
                    settings.push(match flag {
                        "--regex" => Setting::Regex(text(value)?),
                        "--file" => Setting::File(text(value)?),
                        "--eps" => Setting::Eps(parse_value(flag, value)?),
                        "--delta" => Setting::Delta(parse_value(flag, value)?),
                        "--seed" => Setting::Seed(parse_value(flag, value)?),
                        "--threads" => Setting::Threads(parse_value(flag, value)?),
                        "--max-n" => Setting::MaxN(parse_value(flag, value)?),
                        other => return Err(format!("unknown open flag {other:?}")),
                    });
                }
                if !settings.iter().any(|s| matches!(s, Setting::Regex(_) | Setting::File(_))) {
                    return Err("open requires --regex or --file".into());
                }
                Request::Open { name, settings }
            }
            "use" => Request::Use(words.next().ok_or("no such session (open it first)")?.into()),
            "close" => Request::Close(words.next().ok_or("no such session")?.into()),
            "metrics" => Request::Metrics,
            "stats" => Request::Stats,
            "trace" => match (words.next(), words.next()) {
                (Some("on"), Some(path)) => Request::TraceOn(path.to_string()),
                (Some("off"), None) => Request::TraceOff,
                _ => return Err("usage: trace on FILE | trace off".into()),
            },
            "quit" | "exit" => Request::Quit,
            "estimate" => {
                Request::Query(Query::Estimate(parse_n(words.next()).ok_or("usage: estimate N")?))
            }
            "range" => match (parse_n(words.next()), parse_n(words.next())) {
                (Some(a), Some(b)) if a <= b => Request::Query(Query::Range(a, b)),
                _ => return Err("usage: range A B (A <= B)".into()),
            },
            "sample" => {
                let n = parse_n(words.next()).ok_or("usage: sample N [COUNT]")?;
                let count = words.next().map_or(Some(1), |c| c.parse().ok());
                let count =
                    count.filter(|c| (1..=MAX_SAMPLE_COUNT).contains(c)).ok_or_else(|| {
                        format!(
                            "usage: sample N [COUNT] (COUNT must be a positive integer, at most \
                             {MAX_SAMPLE_COUNT})"
                        )
                    })?;
                Request::Query(Query::Sample(n, count))
            }
            other => return Err(format!("unknown command {other:?}")),
        };
        Ok(Some(request))
    }
}

/// One draw of a `sample` query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Draw {
    /// An almost-uniform word, spelled in the tenant's alphabet.
    Word(String),
    /// The slice is empty: no draw can ever succeed, so the query stops.
    EmptySlice,
    /// Every retry failed on a non-empty slice; the next draw may not.
    RetriesExhausted,
}

/// The typed answer to a [`Query`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Answer {
    /// The session replaced a budget-aborted predecessor (one notice line).
    pub recycled: bool,
    /// `(n, estimate)` per answered length (`estimate`, `range`).
    pub estimates: Vec<(usize, ExtFloat)>,
    /// `(n, draw)` per draw (`sample`).
    pub samples: Vec<(usize, Draw)>,
    /// The error that stopped the query after the values above.
    pub error: Option<FprasError>,
}

/// What [`Server::handle`] returns for one request.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A served data-path query.
    Answer(Answer),
    /// A control or report verb's text, newline-terminated lines.
    Text(String),
    /// A rejected request: rendered as one `error: …` line.
    Error(String),
    /// `quit`: renders nothing; the caller stops reading.
    Quit,
}

impl fmt::Display for Response {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Response::Answer(a) => {
                if a.recycled {
                    writeln!(f, "error: session recycled after budget abort")?;
                }
                for (n, est) in &a.estimates {
                    writeln!(f, "estimate {n} = {est} (log2 {:.3})", est.log2())?;
                }
                for (n, draw) in &a.samples {
                    match draw {
                        Draw::Word(w) => writeln!(f, "sample {n} = {w}")?,
                        Draw::EmptySlice => writeln!(f, "sample {n} = (empty slice)")?,
                        Draw::RetriesExhausted => writeln!(f, "sample {n} = (retries exhausted)")?,
                    }
                }
                match &a.error {
                    Some(e) => writeln!(f, "error: {e}"),
                    None => Ok(()),
                }
            }
            Response::Text(text) => f.write_str(text),
            Response::Error(e) => writeln!(f, "error: {e}"),
            Response::Quit => Ok(()),
        }
    }
}

/// The `session: …` summary line (plus a `latency: …` line once a query
/// was timed) that `stats`, the serve exit report and `nfa-count query`
/// print.
pub fn session_summary(s: &SessionStats) -> String {
    let mut out = format!(
        "session: queries={} levels_built={} levels_reused={} reuse_rate={:.3}\n",
        s.queries_served,
        s.levels_built,
        s.levels_reused,
        s.reuse_rate()
    );
    // Latency quantiles are bucket upper edges (see LatencyHistogram):
    // conservative, mergeable across sessions without raw samples.
    if let (Some(p50), Some(p99)) = (s.latency.quantile(0.5), s.latency.quantile(0.99)) {
        out += &format!("latency: count={} p50_us<={p50} p99_us<={p99}\n", s.latency.count());
    }
    out
}

/// One open named session: what must outlive session recycles. The
/// session itself lives in the registry, looked up by `key` per query.
struct Tenant {
    name: String,
    nfa: Nfa,
    params: Params,
    policy: SessionPolicy,
    key: SessionKey,
    /// Levels built across every incarnation of the session: the
    /// `max_total_levels` ledger.
    ledger: u64,
}

/// A multi-tenant server: named sessions multiplexed over one
/// [`ServiceRegistry`] (one shared worker pool per thread count) under
/// one [`AdmissionController`].
pub struct Server {
    registry: ServiceRegistry,
    admission: AdmissionController,
    defaults: TenantSpec,
    tenants: Vec<Tenant>,
    current: Option<usize>,
    /// One sample stream for every tenant: sessions own their *build*
    /// randomness, so D11 pins estimates, not which witness comes next.
    sample_rng: SmallRng,
}

impl Server {
    /// A server with no tenant open. `defaults` seeds every `open`'s
    /// spec (its source fields are ignored) and the sample stream.
    pub fn new(defaults: TenantSpec, quota: QuotaConfig) -> Server {
        Server {
            registry: ServiceRegistry::new(quota.max_sessions.unwrap_or(DEFAULT_REGISTRY_CAPACITY)),
            admission: AdmissionController::new(quota),
            sample_rng: SmallRng::seed_from_u64(defaults.seed ^ 0x05A3_F1E5),
            defaults,
            tenants: Vec::new(),
            current: None,
        }
    }

    /// The session registry (live sessions, totals, churn counters).
    pub fn registry(&self) -> &ServiceRegistry {
        &self.registry
    }

    /// The admission controller (limits and denial counters).
    pub fn admission(&self) -> &AdmissionController {
        &self.admission
    }

    /// Opens `nfa` as tenant `name` under `spec` (source fields ignored)
    /// and selects it, compiling the session eagerly so parameter errors
    /// surface here. Returns the `opened …` line or the error text.
    pub fn open(&mut self, name: &str, nfa: Nfa, spec: &TenantSpec) -> Result<String, String> {
        self.admit_open(name)?;
        self.install(name, nfa, spec)
    }

    /// Answers one request. Never panics on bad input: every rejected
    /// request becomes a [`Response::Error`].
    pub fn handle(&mut self, request: Request) -> Response {
        let result = match request {
            Request::Open { name, settings } => {
                let mut spec = TenantSpec { regex: None, file: None, ..self.defaults.clone() };
                settings.into_iter().for_each(|s| spec.apply(s));
                self.admit_open(&name)
                    .and_then(|()| load_automaton(spec.regex.as_deref(), spec.file.as_deref()))
                    .and_then(|nfa| self.install(&name, nfa, &spec))
                    .map(Response::Text)
            }
            Request::Use(name) => match self.tenants.iter().position(|t| t.name == name) {
                Some(i) => {
                    self.current = Some(i);
                    Ok(Response::Text(format!("using {name}\n")))
                }
                None => Err("no such session (open it first)".to_string()),
            },
            Request::Close(name) => match self.tenants.iter().position(|t| t.name == name) {
                Some(i) => {
                    self.tenants.remove(i);
                    // Re-point `current` at the tenant it selected
                    // (indices shifted), or clear it.
                    self.current = match self.current {
                        Some(c) if c == i => None,
                        Some(c) if c > i => Some(c - 1),
                        other => other,
                    };
                    Ok(Response::Text(format!("closed {name}\n")))
                }
                None => Err("no such session".to_string()),
            },
            Request::Query(query) => self.query(query).map(Response::Answer),
            Request::Stats => Ok(Response::Text(self.stats_report())),
            Request::Metrics => Ok(Response::Text(self.metrics())),
            Request::TraceOn(path) => match JsonlSink::create(&path) {
                Ok(sink) => {
                    // Replacing an active sink flushes and closes it.
                    obs::install_sink(Box::new(sink));
                    Ok(Response::Text(format!("trace on ({path})\n")))
                }
                Err(e) => Err(format!("cannot open trace file {path}: {e}")),
            },
            Request::TraceOff => {
                obs::take_sink();
                Ok(Response::Text("trace off\n".to_string()))
            }
            Request::Quit => Ok(Response::Quit),
        };
        result.unwrap_or_else(Response::Error)
    }

    /// The `open` admission: a fresh name and a free session slot.
    fn admit_open(&mut self, name: &str) -> Result<(), String> {
        if self.tenants.iter().any(|t| t.name == name) {
            return Err(format!("session {name:?} already open (select it with: use {name})"));
        }
        self.admission.admit_session(self.tenants.len()).map_err(|d| quota_denied(name, d))
    }

    /// Compiles the tenant's session and selects it.
    fn install(&mut self, name: &str, nfa: Nfa, spec: &TenantSpec) -> Result<String, String> {
        let (params, policy) = spec.session_inputs(&nfa);
        let trials = params.appunion_trials(params.beta_count, params.delta_count_inner(), 0.0, 1);
        if trials > MAX_UNION_TRIALS {
            return Err(format!(
                "--max-n {} at --eps {} needs {trials} AppUnion trials per call (at most \
                 {MAX_UNION_TRIALS}): lower --max-n or raise --eps",
                spec.max_n, spec.eps
            ));
        }
        let key = SessionKey::new(&nfa, &params, &policy);
        self.registry
            .session_with_key(key.clone(), &nfa, &params, &policy)
            .map_err(|e| e.to_string())?;
        let line = format!(
            "opened {name} ({} states, {} transitions, {})\n",
            nfa.num_states(),
            nfa.num_transitions(),
            policy.label()
        );
        obs::emit_with(|| TraceEvent::SessionOpen { tenant: name.to_string() });
        self.tenants.push(Tenant { name: name.to_string(), nfa, params, policy, key, ledger: 0 });
        self.current = Some(self.tenants.len() - 1);
        Ok(line)
    }

    /// The data path, in its one order: session lookup (recycling a
    /// poisoned predecessor), level admission against the ledger (before
    /// any work), the per-query op budget, the verb, then ledger upkeep
    /// and abort accounting.
    fn query(&mut self, query: Query) -> Result<Answer, String> {
        let cur = self.current.ok_or("no session selected (open NAME --regex P, or: use NAME)")?;
        let t = &mut self.tenants[cur];
        let (session, recycled) = self
            .registry
            .session_with_key_recycled(t.key.clone(), &t.nfa, &t.params, &t.policy)
            .map_err(|e| e.to_string())?;
        let horizon = match query {
            Query::Estimate(n) | Query::Sample(n, _) => n,
            Query::Range(_, b) => b,
        };
        let needed = horizon.saturating_sub(session.levels_built()) as u64;
        self.admission.admit_levels(t.ledger, needed).map_err(|d| quota_denied(&t.name, d))?;
        let cap = self.admission.per_query_ops_cap(session.run_stats().membership_ops);
        session.set_build_ops_budget(cap);
        if recycled {
            obs::emit_with(|| TraceEvent::SessionRecycle { tenant: t.name.clone() });
        }
        let built_before = session.levels_built();
        let mut answer = Answer { recycled, ..Answer::default() };
        let outcome = match query {
            Query::Estimate(n) => session.estimate(n).map(|est| answer.estimates.push((n, est))),
            Query::Range(a, b) => {
                session.estimate_range(a..=b).map(|ests| answer.estimates.extend((a..=b).zip(ests)))
            }
            Query::Sample(n, count) => {
                let alphabet = t.nfa.alphabet();
                draw_samples(session, n, count, &mut self.sample_rng, alphabet, &mut answer.samples)
            }
        };
        t.ledger += (session.levels_built() - built_before) as u64;
        if let Err(e) = outcome {
            // Only an abort under an installed per-query cap is the
            // quota's doing.
            if matches!(e, FprasError::BudgetExceeded { .. })
                && self.admission.config().max_query_ops.is_some()
            {
                self.admission.record_budget_abort();
            }
            answer.error = Some(e);
        }
        Ok(answer)
    }

    /// The `stats` report: registry-wide totals plus a `server:` line.
    fn stats_report(&self) -> String {
        let r = self.registry.stats();
        session_summary(&self.registry.session_totals())
            + &format!(
                "server: tenants={} sessions_created={} session_hits={} sessions_recycled={} \
                 pools_created={} pool_workers_spawned={} quota_rejections={}\n",
                self.tenants.len(),
                r.sessions_created,
                r.session_hits,
                r.sessions_recycled,
                r.pools_created,
                r.pool_workers_spawned,
                self.admission.stats().quota_rejections()
            )
    }

    /// The `metrics` response: a Prometheus snapshot of the registry,
    /// admission and latency counters, cumulative over the process
    /// (evicted sessions included).
    fn metrics(&self) -> String {
        let totals = self.registry.session_totals();
        let r = self.registry.stats();
        let mut prom = PromText::new();
        prom.gauge(
            "fpras_open_tenants",
            "Named serve sessions currently open.",
            self.tenants.len() as f64,
        )
        .counter(
            "fpras_sessions_created_total",
            "Sessions compiled from scratch (registry misses).",
            r.sessions_created,
        )
        .counter("fpras_session_hits_total", "Queries routed to a cached session.", r.session_hits)
        .counter(
            "fpras_sessions_evicted_total",
            "Sessions evicted by the LRU policy.",
            r.sessions_evicted,
        )
        .counter(
            "fpras_sessions_recycled_total",
            "Poisoned sessions replaced by a fresh compile.",
            r.sessions_recycled,
        )
        .counter(
            "fpras_pool_workers_spawned_total",
            "OS worker threads spawned across shared pools.",
            r.pool_workers_spawned,
        )
        .counter(
            "fpras_queries_served_total",
            "Queries answered across every session the registry ever owned.",
            totals.queries_served,
        )
        .counter(
            "fpras_levels_built_total",
            "DP levels built across sessions.",
            totals.levels_built,
        )
        .counter(
            "fpras_levels_reused_total",
            "Query-needed levels answered from a checkpoint.",
            totals.levels_reused,
        )
        .counter(
            "fpras_quota_rejections_total",
            "Opens and queries denied by the admission controller.",
            self.admission.stats().quota_rejections(),
        )
        .histogram(
            "fpras_query_latency_us",
            "Per-query serve latency in microseconds.",
            &totals.latency,
        );
        prom.render()
    }
}

/// Traces a quota denial and returns its `error:` text.
fn quota_denied(tenant: &str, denied: QuotaDenied) -> String {
    let reason = denied.to_string();
    obs::emit_with(|| TraceEvent::QuotaDenied { tenant: tenant.into(), reason: reason.clone() });
    reason
}

/// Draws up to `count` words of length `n` into `draws`. A `None` draw
/// stops on an empty slice and is retried after exhausted retries.
fn draw_samples(
    session: &mut QuerySession,
    n: usize,
    count: usize,
    rng: &mut SmallRng,
    alphabet: &Alphabet,
    draws: &mut Vec<(usize, Draw)>,
) -> Result<(), FprasError> {
    for _ in 0..count {
        match session.sample(n, rng)? {
            Some(w) => draws.push((n, Draw::Word(w.display(alphabet)))),
            None if session.slice_is_empty(n)? => {
                draws.push((n, Draw::EmptySlice));
                break;
            }
            None => draws.push((n, Draw::RetriesExhausted)),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(line: &str) -> Request {
        Request::parse(line).expect("well-formed").expect("not blank")
    }

    /// The typed answer is the session's own value, and it renders to
    /// the byte-identical line `nfa-count serve` prints for
    /// `open t --regex (0|1)*11(0|1)* --seed 5` then `estimate 6`.
    #[test]
    fn typed_estimate_matches_session_and_rendered_line() {
        let mut server = Server::new(TenantSpec::default(), QuotaConfig::default());
        let opened = server.handle(request("open t --regex (0|1)*11(0|1)* --seed 5"));
        assert_eq!(opened.to_string(), "opened t (7 states, 16 transitions, serial)\n");
        let Response::Answer(answer) = server.handle(request("estimate 6")) else {
            panic!("estimate is served")
        };
        let nfa = load_automaton(Some("(0|1)*11(0|1)*"), None).unwrap();
        let spec = TenantSpec { seed: 5, ..TenantSpec::default() };
        let (params, policy) = spec.session_inputs(&nfa);
        let fresh = QuerySession::new(&nfa, params, policy).unwrap().estimate(6).unwrap();
        assert_eq!(answer.estimates, vec![(6, fresh)]);
        assert_eq!(
            Response::Answer(answer).to_string(),
            "estimate 6 = 42.96379334261135 (log2 5.425)\n"
        );
    }

    #[test]
    fn parse_keeps_per_verb_messages_and_caps() {
        let err = |line: &str| Request::parse(line).unwrap_err();
        assert_eq!(Request::parse("  \n"), Ok(None));
        assert_eq!(request("sample 3"), Request::Query(Query::Sample(3, 1)));
        assert_eq!(request("sample 3 10000"), Request::Query(Query::Sample(3, MAX_SAMPLE_COUNT)));
        assert!(err("sample 3 10001").starts_with("usage: sample N [COUNT]"));
        assert!(err("sample 3 0").contains("COUNT must be a positive integer"));
        assert_eq!(err("range 5 2"), "usage: range A B (A <= B)");
        assert_eq!(err("open a --eps huge"), "invalid value \"huge\" for --eps");
        assert_eq!(err("open a --eps 0.1"), "open requires --regex or --file");
        assert_eq!(err("open a --regex"), "missing value for --regex");
        assert_eq!(err("open a --bogus 1"), "unknown open flag \"--bogus\"");
        assert_eq!(err("frobnicate"), "unknown command \"frobnicate\"");
    }

    /// Every line is answered, in order: an overlong line is discarded
    /// through its newline (or end of input), a non-UTF-8 line is
    /// refused, and a line of exactly `MAX_LINE_BYTES` is accepted.
    #[test]
    fn request_lines_are_capped_and_checked_for_utf8() {
        let at_cap = "a".repeat(MAX_LINE_BYTES);
        let mut input = Vec::new();
        input.extend_from_slice(b"estimate 3\n\xff\xfe\n");
        input.extend(std::iter::repeat_n(b'x', 3 * MAX_LINE_BYTES));
        input.extend_from_slice(b"\n");
        input.extend_from_slice(at_cap.as_bytes());
        input.extend_from_slice(b"\nstats");
        input.extend(std::iter::repeat_n(b'y', MAX_LINE_BYTES));
        let mut reader = io::BufReader::with_capacity(1024, &input[..]);
        let mut buf = Vec::new();
        let mut lines = Vec::new();
        while let Some(line) = read_request_line(&mut reader, &mut buf).unwrap() {
            lines.push(line.map(str::to_string));
        }
        let too_long = Err(format!("line longer than {MAX_LINE_BYTES} bytes"));
        assert_eq!(lines.len(), 5);
        assert_eq!(lines[0], Ok("estimate 3\n".to_string()));
        assert_eq!(lines[1], Err("line is not valid UTF-8".to_string()));
        assert_eq!(lines[2], too_long);
        assert_eq!(lines[3], Ok(format!("{at_cap}\n")));
        assert_eq!(lines[4], too_long, "an overlong last line ends at end of input");
    }

    #[test]
    fn automaton_files_are_regular_and_bounded() {
        let refused = |path: &str| read_automaton_file(path).unwrap_err();
        // A device is refused from its metadata, before any read.
        assert!(matches!(refused("/dev/zero"), FileReadError::NotRegularFile));
        let dir = std::env::temp_dir();
        assert!(matches!(refused(dir.to_str().unwrap()), FileReadError::NotRegularFile));
        let missing = dir.join(format!("fpras-no-such-{}.nfa", std::process::id()));
        assert!(matches!(refused(missing.to_str().unwrap()), FileReadError::Io(_)));

        let path = dir.join(format!("fpras-file-cap-{}.nfa", std::process::id()));
        let text = "alphabet 01\nstates 1\ninitial 0\naccepting 0\ntrans 0 1 0\n";
        let mut padded = text.to_string();
        padded.extend(std::iter::repeat_n('\n', MAX_FILE_BYTES as usize - text.len()));
        std::fs::write(&path, &padded).unwrap();
        let at_cap = read_automaton_file(path.to_str().unwrap()).map(|t| t.len());
        padded.push('\n');
        std::fs::write(&path, &padded).unwrap();
        let over = refused(path.to_str().unwrap());
        std::fs::remove_file(&path).unwrap();
        assert_eq!(at_cap.unwrap(), MAX_FILE_BYTES as usize);
        assert!(matches!(over, FileReadError::TooLarge), "{over}");
        let err = load_automaton(None, Some("/dev/zero")).unwrap_err();
        assert_eq!(err, "cannot read /dev/zero: not a regular file");
    }

    #[test]
    fn open_rejects_oversized_threads_and_union_work() {
        let mut server = Server::new(TenantSpec::default(), QuotaConfig::default());
        let threads = server.handle(request("open a --regex 1* --threads 100000"));
        assert!(threads.to_string().contains("threads must be at most 256"), "{threads}");
        let horizon = server.handle(request("open b --regex 1* --max-n 100000000"));
        assert!(horizon.to_string().contains("AppUnion trials per call"), "{horizon}");
        assert_eq!(server.registry().stats().sessions_created, 0, "no session was compiled");
        assert!(server.handle(request("open c --regex 1*")).to_string().starts_with("opened c"));
    }
}
