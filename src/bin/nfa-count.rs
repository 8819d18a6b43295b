//! `nfa-count` — command-line approximate #NFA.
//!
//! ```text
//! nfa-count --regex '(0|10)*1?' -n 40            # count regex matches
//! nfa-count --file machine.nfa -n 64 --eps 0.1   # count an NFA's slice
//! nfa-count --regex '1(0|1)*' -n 24 --sample 5   # also sample witnesses
//! nfa-count --regex '0*' -n 12 --exact           # cross-check vs exact
//! nfa-count --regex '0*1' -n 20 --method bdd     # exact via BDD
//! nfa-count --regex '1*' -n 8 --enumerate 10     # list the first words
//! nfa-count --file machine.nfa -n 8 --dot        # emit Graphviz and exit
//! nfa-count query --regex '1(0|1)*' --lengths 8,4,12   # one session, many lengths
//! echo 'estimate 16' | nfa-count serve --regex '1*'    # stdin query loop
//! printf 'open a --regex 1*\nestimate 8\n' | nfa-count serve  # multi-session
//! nfa-count robp --file prog.robp --exact              # count an nROBP's assignments
//! ```
//!
//! Methods: `fpras` (default, Algorithm 3 through the level-synchronous
//! engine — `--threads 0` runs the Serial policy, `--threads T ≥ 1` the
//! Deterministic policy on `T` workers with output independent of `T`),
//! `path-is` (unbiased path importance sampling), `dp` (exact
//! determinization DP), `bdd` (exact BDD model counting). `parallel` is
//! accepted as a deprecated alias for `fpras` with multi-threading. The
//! NFA file format is documented in `fpras_automata::parse`.
//!
//! The `robp` subcommand runs the same engine over the other leveled
//! substrate (DESIGN.md D14): a non-deterministic read-once branching
//! program in the text format of `fpras_automata::robp`, whose depth
//! fixes the query length (every accepted assignment reads all
//! variables).
//!
//! The `query` subcommand answers many lengths from **one**
//! `fpras_core::service::QuerySession` (levels built once, reused by
//! every related query; answers bit-identical to fresh runs — DESIGN.md
//! D11). The `serve` subcommand is a stdin loop over the library's
//! `fpras_core::service::protocol::Server`: a line protocol where
//! `open NAME --regex P | use NAME | close NAME` manage named sessions
//! multiplexed over one `ServiceRegistry` (all Deterministic sessions
//! share ONE worker pool — D13), and
//! `--max-sessions/--max-total-levels/--max-query-ops` impose
//! per-tenant quotas that degrade to `error:` lines, never process
//! exit.

use fpras_automata::exact::{count_exact, ExactError};
use fpras_automata::{dot, enumerate_slice, Alphabet, Nfa};
use fpras_baselines::path_importance_sampling;
use fpras_core::service::protocol::{
    load_automaton, parse_value, session_summary, Request, Response, Server, TenantSpec,
};
use fpras_core::service::{QuerySession, QuotaConfig};
use fpras_core::{
    run_parallel, run_robp_parallel, FprasError, FprasRun, JsonlSink, Params, RunStats,
    UniformGenerator, MAX_THREADS,
};
use fpras_numeric::{BigUint, ExtFloat};
use rand::{rngs::SmallRng, SeedableRng};

struct Args {
    regex: Option<String>,
    file: Option<String>,
    n: usize,
    eps: f64,
    delta: f64,
    seed: u64,
    sample: usize,
    exact: bool,
    method: Method,
    threads: Option<usize>,
    enumerate: usize,
    dot: bool,
    stats: bool,
    trace_out: Option<String>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Method {
    Fpras,
    PathIs,
    ExactDp,
    ExactBdd,
}

fn usage() -> ! {
    eprintln!(
        "usage: nfa-count (--regex PATTERN | --file PATH) -n LENGTH\n\
         \t[--method fpras|path-is|dp|bdd] [--threads T=0]\n\
         \t[--eps E=0.2] [--delta D=0.05] [--seed S=42] [--sample K]\n\
         \t[--enumerate K] [--exact] [--dot] [--stats] [--trace-out FILE]\n\
         \n\
         --threads 0 runs the FPRAS engine's Serial policy; T >= 1 runs\n\
         the Deterministic policy on T workers (output depends only on\n\
         --seed, never on T).\n\
         --stats prints the full run counters, including the batching,\n\
         memo, sharing, executor, and phase-wall numbers.\n\
         --trace-out streams structured run events (level passes, memo\n\
         commits, pool summaries) to FILE as JSON lines; tracing is\n\
         observation-only and never changes an estimate bit."
    );
    std::process::exit(2)
}

/// Parses the value after the flag at `argv[*i]` (advancing `i`) with
/// [`parse_value`], the check the serve `open` verb shares; a missing
/// or malformed value is reported and exits through `$usage`.
macro_rules! num {
    ($argv:expr, $i:expr, $usage:expr) => {{
        *$i += 1;
        parse_value(&$argv[*$i - 1], $argv.get(*$i).map(String::as_str)).unwrap_or_else(|e| {
            eprintln!("{e}");
            $usage
        })
    }};
}

fn parse_args() -> Args {
    let mut args = Args {
        regex: None,
        file: None,
        n: usize::MAX,
        eps: 0.2,
        delta: 0.05,
        seed: 42,
        sample: 0,
        exact: false,
        method: Method::Fpras,
        threads: None,
        enumerate: 0,
        dot: false,
        stats: false,
        trace_out: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        argv.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--regex" => args.regex = Some(value(&mut i)),
            "--file" => args.file = Some(value(&mut i)),
            "-n" | "--length" => args.n = num!(argv, &mut i, usage()),
            "--eps" => args.eps = num!(argv, &mut i, usage()),
            "--delta" => args.delta = num!(argv, &mut i, usage()),
            "--seed" => args.seed = num!(argv, &mut i, usage()),
            "--sample" => args.sample = num!(argv, &mut i, usage()),
            "--threads" => args.threads = Some(num!(argv, &mut i, usage())),
            "--enumerate" => args.enumerate = num!(argv, &mut i, usage()),
            "--exact" => args.exact = true,
            "--dot" => args.dot = true,
            "--stats" => args.stats = true,
            "--trace-out" => args.trace_out = Some(value(&mut i)),
            "--method" => {
                args.method = match value(&mut i).as_str() {
                    "fpras" => Method::Fpras,
                    "parallel" => {
                        // Deprecated alias: same engine, Deterministic
                        // policy; honor an explicit --threads if given.
                        eprintln!(
                            "note: --method parallel is deprecated; use \
                             --method fpras --threads T"
                        );
                        if args.threads.is_none() {
                            args.threads = Some(4);
                        }
                        Method::Fpras
                    }
                    "path-is" => Method::PathIs,
                    "dp" => Method::ExactDp,
                    "bdd" => Method::ExactBdd,
                    other => {
                        eprintln!("unknown method {other:?}");
                        usage()
                    }
                }
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument {other:?}");
                usage()
            }
        }
        i += 1;
    }
    if args.n == usize::MAX || (args.regex.is_none() == args.file.is_none()) {
        usage();
    }
    if args.method != Method::Fpras && (args.stats || args.trace_out.is_some()) {
        eprintln!("--stats and --trace-out require --method fpras");
        usage();
    }
    check_threads(args.threads.unwrap_or(0), usage);
    args
}

/// Rejects a worker count a Deterministic run could not spawn, through
/// the caller's usage exit.
fn check_threads(threads: usize, usage: fn() -> !) {
    if threads > MAX_THREADS {
        eprintln!("--threads must be at most {MAX_THREADS}, got {threads}");
        usage();
    }
}

/// [`load_automaton`] for the one-shot paths: any failure is fatal.
fn load_automaton_or_exit(regex_pattern: Option<&str>, file: Option<&str>) -> Nfa {
    load_automaton(regex_pattern, file).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    })
}

fn report_estimate(label: &str, estimate: ExtFloat) {
    println!("estimate {label} ≈ {estimate}");
    println!("  log2 ≈ {:.3}", estimate.log2());
}

/// The one-shot FPRAS run of both front-ends (NFA and nROBP):
/// validates `params` (usage exit 2; the one checker every surface
/// shares), runs, and reports the estimate, the run's work on stderr and
/// `--stats`. A failed run exits 1. `threads = 0` is the Serial policy
/// (one RNG threaded through the DP); `threads ≥ 1` the Deterministic
/// policy, bit-identical for every thread count.
fn run_fpras(
    label: &str,
    params: &Params,
    threads: usize,
    stats: bool,
    run: impl FnOnce() -> Result<FprasRun, FprasError>,
) -> FprasRun {
    if let Err(e) = params.validate() {
        eprintln!("{e}");
        std::process::exit(2);
    }
    let run = run().unwrap_or_else(|e| {
        eprintln!("FPRAS failed: {e}");
        std::process::exit(1);
    });
    report_estimate(label, run.estimate());
    eprintln!(
        "  ({} policy, {} membership ops, {:.1} samples/cell, {:?})",
        if threads == 0 { "serial".to_string() } else { format!("deterministic×{threads}") },
        run.stats().membership_ops,
        run.stats().samples_per_cell(),
        run.stats().wall
    );
    if stats {
        report_stats(run.stats());
    }
    run
}

/// `--exact`: the exact count under the estimate, with the relative
/// error against the target ε.
fn report_exact(label: &str, estimate: ExtFloat, exact: Result<BigUint, ExactError>, eps: f64) {
    match exact {
        Ok(exact) => {
            let exact_f = exact.to_f64();
            let rel = if exact_f == 0.0 {
                if estimate.is_zero() {
                    0.0
                } else {
                    f64::INFINITY
                }
            } else {
                (estimate.to_f64() - exact_f).abs() / exact_f
            };
            println!("exact    {label} = {exact}");
            println!("  relative error {rel:.5} (target ε = {eps})");
        }
        Err(e) => eprintln!("exact counter unavailable: {e}"),
    }
}

/// `--sample K`: up to `K` almost-uniform words of the run's slice.
fn print_samples(
    run: FprasRun,
    count: usize,
    rng: &mut SmallRng,
    alphabet: &Alphabet,
    empty: &str,
) {
    let mut generator = UniformGenerator::new(run);
    println!("samples:");
    for _ in 0..count {
        match generator.generate(rng) {
            Some(w) => println!("  {}", w.display(alphabet)),
            None => {
                println!("  ({empty})");
                break;
            }
        }
    }
}

/// `--stats`: the full run counters, one per line (machine-greppable).
fn report_stats(s: &RunStats) {
    println!("stats:");
    println!("  membership ops       {}", s.membership_ops);
    println!("  appunion calls       {}", s.appunion_calls);
    println!("  memo hit rate        {:.4}", s.memo_hit_rate());
    println!("  sample calls         {}", s.sample_calls);
    println!("  rejection rate       {:.4}", s.rejection_rate());
    println!("  samples per cell     {:.2}", s.samples_per_cell());
    println!("  cells processed      {}", s.cells_processed);
    println!("  cells skipped        {}", s.cells_skipped);
    println!("  padded cells         {}", s.padded_cells);
    println!("  batch groups formed  {}", s.batch.groups_formed);
    println!("  batch cells deduped  {}", s.batch.cells_deduped);
    println!("  batch unions run     {}", s.batch.unions_run);
    println!("  batch unions skipped {}", s.batch.unions_skipped);
    println!("  batch dedup rate     {:.4}", s.batch.dedup_rate());
    println!("  memo commits         {}", s.memo.commits);
    println!("  memo promoted        {}", s.memo.entries_promoted);
    println!("  memo snapshots       {}", s.memo.snapshots);
    println!("  memo entries shared  {}", s.memo.entries_shared);
    println!("  memo overlay entries {}", s.memo.overlay_entries);
    println!("  share pre-estimated  {}", s.share.frontiers_preestimated);
    println!("  share pre-est hits   {}", s.share.preestimate_hits);
    println!("  share already seeded {}", s.share.keys_already_seeded);
    println!("  pool parallel passes {}", s.pool.parallel_passes);
    println!("  pool parallel items  {}", s.pool.parallel_items);
    println!("  pool sequential pass {}", s.pool.sequential_passes);
    println!("  pool sequential item {}", s.pool.sequential_items);
    println!("  pool steals          {}", s.pool.steals);
    println!("  pool worker items    {:?}", s.pool.worker_items);
    println!("  pool worker ops      {:?}", s.pool.worker_ops);
    println!("  intern distinct      {}", s.intern.distinct_frontiers);
    println!("  intern hits          {}", s.intern.intern_hits);
    println!("  intern arena bytes   {}", s.intern.arena_bytes);
    match s.pool.ops_balance_ratio() {
        Some(r) => println!("  pool ops balance     {r:.3}"),
        None => println!("  pool ops balance     n/a"),
    }
    println!("  phase plan           {:?}", s.phase.plan);
    println!("  phase count          {:?}", s.phase.count);
    println!("  phase share          {:?}", s.phase.share);
    println!("  phase sample         {:?}", s.phase.sample);
    println!("  phase merge          {:?}", s.phase.merge);
    println!("  wall total           {:?}", s.wall_total());
    println!("  wall longest         {:?}", s.wall_longest());
}

/// Shared flags of the `serve`/`query` subcommands.
struct ServiceArgs {
    /// The automaton source and session parameters (`serve`: the
    /// defaults every `open` starts from; `query` raises `max_n` to the
    /// largest requested length).
    spec: TenantSpec,
    lengths: Vec<usize>,
    stats: bool,
    /// `serve` quotas: open sessions, cumulative levels per tenant, and
    /// membership ops per query.
    quota: QuotaConfig,
}

fn service_usage(cmd: &str) -> ! {
    eprintln!(
        "usage: nfa-count {cmd} {}\n\
         \t{}[--eps E=0.2] [--delta D=0.05] [--seed S=42]\n\
         \t[--threads T=0] [--max-n N=64] [--stats]{}\n\
         \n\
         One QuerySession serves every length: levels are built once and\n\
         reused by later queries; answers are bit-identical to a fresh\n\
         run at the same length under the same --seed and --threads.\n\
         --max-n sizes the error-budget split and is a hard cap: lengths\n\
         above it are refused (`query` raises it to max(--lengths)\n\
         automatically).{}",
        if cmd == "serve" {
            "[--regex PATTERN | --file PATH]"
        } else {
            "(--regex PATTERN | --file PATH)"
        },
        if cmd == "query" { "--lengths N1,N2,… " } else { "" },
        if cmd == "serve" {
            "\n\t[--max-sessions K] [--max-total-levels L] [--max-query-ops B]"
        } else {
            ""
        },
        if cmd == "serve" {
            "\n\nserve reads commands from stdin, one per line:\n\
             \topen NAME (--regex P | --file F) [--seed S] [--threads T]\n\
             \t          [--eps E] [--delta D] [--max-n N]\n\
             \tuse NAME | close NAME\n\
             \testimate N | range A B | sample N [COUNT] | stats | quit\n\
             \tmetrics            (Prometheus text exposition snapshot)\n\
             \ttrace on FILE | trace off   (JSONL run-event tracing)\n\
             Named sessions multiplex onto one registry and one shared\n\
             worker pool; --regex/--file at startup opens session\n\
             \"default\". Bad lines and quota denials answer with one\n\
             `error: …` line each — the process never exits on them."
        } else {
            ""
        }
    );
    std::process::exit(2)
}

fn parse_service_args(cmd: &str, argv: &[String]) -> ServiceArgs {
    let mut args = ServiceArgs {
        spec: TenantSpec::default(),
        lengths: Vec::new(),
        stats: false,
        quota: QuotaConfig::default(),
    };
    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        argv.get(*i).cloned().unwrap_or_else(|| service_usage(cmd))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--regex" => args.spec.regex = Some(value(&mut i)),
            "--file" => args.spec.file = Some(value(&mut i)),
            "--eps" => args.spec.eps = num!(argv, &mut i, service_usage(cmd)),
            "--delta" => args.spec.delta = num!(argv, &mut i, service_usage(cmd)),
            "--seed" => args.spec.seed = num!(argv, &mut i, service_usage(cmd)),
            "--threads" => args.spec.threads = num!(argv, &mut i, service_usage(cmd)),
            "--max-n" => args.spec.max_n = num!(argv, &mut i, service_usage(cmd)),
            "--stats" => args.stats = true,
            "--max-sessions" if cmd == "serve" => {
                args.quota.max_sessions = Some(num!(argv, &mut i, service_usage(cmd)))
            }
            "--max-total-levels" if cmd == "serve" => {
                args.quota.max_total_levels = Some(num!(argv, &mut i, service_usage(cmd)))
            }
            "--max-query-ops" if cmd == "serve" => {
                args.quota.max_query_ops = Some(num!(argv, &mut i, service_usage(cmd)))
            }
            "--lengths" if cmd == "query" => {
                args.lengths = value(&mut i)
                    .split(',')
                    .map(|s| {
                        parse_value("--lengths", Some(s.trim())).unwrap_or_else(|e| {
                            eprintln!("{e}");
                            service_usage(cmd)
                        })
                    })
                    .collect();
            }
            "--help" | "-h" => service_usage(cmd),
            other => {
                eprintln!("unknown argument {other:?}");
                service_usage(cmd)
            }
        }
        i += 1;
    }
    // `query` needs exactly one automaton source up front; `serve` can
    // start empty (sessions are opened over the protocol) but still
    // rejects contradictory sources.
    let both = args.spec.regex.is_some() && args.spec.file.is_some();
    let neither = args.spec.regex.is_none() && args.spec.file.is_none();
    if both || (neither && cmd != "serve") {
        service_usage(cmd);
    }
    if cmd == "query" && args.lengths.is_empty() {
        eprintln!("query requires --lengths");
        service_usage(cmd);
    }
    args
}

/// `nfa-count query`: one session answers a list of lengths in order.
/// Parameter checking is [`QuerySession::new`]'s job (the one shared
/// [`Params::validate`] path); its error is a usage exit, before any
/// level is built.
fn query_main(argv: &[String]) {
    let mut args = parse_service_args("query", argv);
    args.spec.max_n = args.spec.max_n.max(args.lengths.iter().copied().max().unwrap_or(0));
    let nfa = load_automaton_or_exit(args.spec.regex.as_deref(), args.spec.file.as_deref());
    let (params, policy) = args.spec.session_inputs(&nfa);
    let mut session = QuerySession::new(&nfa, params, policy).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    for &n in &args.lengths {
        match session.estimate(n) {
            Ok(est) => println!("estimate |L(A_{n})| ≈ {est} (log2 ≈ {:.3})", est.log2()),
            Err(e) => {
                eprintln!("query n={n} failed: {e}");
                std::process::exit(1);
            }
        }
    }
    // The reuse summary and, under `--stats`, the build counters merged
    // with the sample-serving work (tracked apart so serving never
    // spends the build budget).
    print!("{}", session_summary(session.stats()));
    if args.stats {
        let mut merged = session.run_stats().clone();
        merged.merge(session.query_run_stats());
        report_stats(&merged);
    }
}

/// `nfa-count serve`: a stdin loop over one protocol [`Server`] (named
/// sessions, one shared worker pool per thread count, quota-governed
/// admission). Returns the process exit code: 0 on clean EOF or
/// `quit`, 1 when stdin failed mid-stream (an I/O error is not an end
/// of input).
fn serve_main(argv: &[String]) -> i32 {
    let args = parse_service_args("serve", argv);
    let mut server = Server::new(args.spec.clone(), args.quota);

    // Back-compat: `serve --regex P` behaves like the old one-session
    // loop — session "default" is opened and selected. Startup failures
    // are still process-fatal (exit 2): no client is listening yet, so
    // an `error:` line would vanish into a broken pipeline.
    if args.spec.regex.is_some() || args.spec.file.is_some() {
        let opened = load_automaton(args.spec.regex.as_deref(), args.spec.file.as_deref())
            .and_then(|nfa| server.open("default", nfa, &args.spec));
        if let Err(e) = opened {
            eprintln!("{e}");
            return 2;
        }
    }

    eprintln!(
        "serving (open NAME --regex P | use NAME | close NAME | estimate N | \
         range A B | sample N [COUNT] | stats | metrics | trace on FILE | \
         trace off | quit)"
    );
    let stdin = std::io::stdin();
    let mut line = String::new();
    let mut io_error: Option<std::io::Error> = None;
    loop {
        line.clear();
        match stdin.read_line(&mut line) {
            Ok(0) => break, // clean EOF
            Ok(_) => {}
            Err(e) => {
                // An I/O failure is not an end of input: report it and
                // exit nonzero so pipelines can tell the two apart.
                io_error = Some(e);
                break;
            }
        }
        let response = match Request::parse(&line) {
            Ok(None) => continue,
            Ok(Some(request)) => server.handle(request),
            Err(e) => Response::Error(e),
        };
        if response == Response::Quit {
            break;
        }
        print!("{response}");
    }

    // Flush and close any trace file a `trace on` left active.
    fpras_core::obs::take_sink();
    print!("{}", session_summary(&server.registry().session_totals()));
    if args.stats {
        // Folding live sessions sums their walls (serial-equivalent
        // time); wall_longest in the report keeps the largest single
        // session's wall visible next to the total.
        let mut merged = RunStats::default();
        for session in server.registry().sessions() {
            merged.merge(session.run_stats());
            merged.merge(session.query_run_stats());
        }
        report_stats(&merged);
    }
    match io_error {
        Some(e) => {
            eprintln!("stdin read error: {e}");
            1
        }
        None => 0,
    }
}

fn robp_usage() -> ! {
    eprintln!(
        "usage: nfa-count robp --file PATH\n\
         \t[--eps E=0.2] [--delta D=0.05] [--seed S=42] [--threads T=0]\n\
         \t[--sample K] [--exact] [--stats]\n\
         \n\
         Counts the accepted assignments of a non-deterministic\n\
         read-once branching program (text format: see\n\
         fpras_automata::robp) with the same level-synchronous FPRAS\n\
         engine, run over the program's leveled DAG directly. The\n\
         program's depth fixes the word length; --threads selects the\n\
         Serial (0) or Deterministic (T >= 1) policy exactly as the\n\
         top-level command does, with output independent of T."
    );
    std::process::exit(2)
}

/// `nfa-count robp`: the one-shot counter for the nROBP substrate.
fn robp_main(argv: &[String]) {
    let mut file: Option<String> = None;
    let (mut eps, mut delta, mut seed) = (0.2f64, 0.05f64, 42u64);
    let mut threads = 0usize;
    let mut sample = 0usize;
    let (mut exact, mut stats) = (false, false);
    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        argv.get(*i).cloned().unwrap_or_else(|| robp_usage())
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--file" => file = Some(value(&mut i)),
            "--eps" => eps = num!(argv, &mut i, robp_usage()),
            "--delta" => delta = num!(argv, &mut i, robp_usage()),
            "--seed" => seed = num!(argv, &mut i, robp_usage()),
            "--threads" => threads = num!(argv, &mut i, robp_usage()),
            "--sample" => sample = num!(argv, &mut i, robp_usage()),
            "--exact" => exact = true,
            "--stats" => stats = true,
            "--help" | "-h" => robp_usage(),
            other => {
                eprintln!("unknown argument {other:?}");
                robp_usage()
            }
        }
        i += 1;
    }
    check_threads(threads, robp_usage);
    let Some(path) = file else { robp_usage() };
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(1);
    });
    let robp = fpras_automata::robp::from_text(&text).unwrap_or_else(|e| {
        eprintln!("cannot parse {path}: {e}");
        std::process::exit(1);
    });
    let n = robp.depth();
    eprintln!(
        "program: {} nodes, {} edges, depth {n}, alphabet {:?}",
        robp.num_nodes(),
        robp.num_edges(),
        robp.alphabet()
    );

    let params = Params::practical(eps, delta, robp.num_nodes(), n);
    let mut rng = SmallRng::seed_from_u64(seed);
    let run = run_fpras("|L(P)|", &params, threads, stats, || {
        if threads == 0 {
            FprasRun::run_robp(&robp, &params, &mut rng)
        } else {
            run_robp_parallel(&robp, &params, seed, threads)
        }
    });
    if exact {
        // The node graph doubles as the exact oracle: in a leveled DAG
        // every accepted word has length exactly `depth`.
        report_exact("|L(P)|", run.estimate(), count_exact(&robp.to_nfa(), n), eps);
    }
    if sample > 0 {
        print_samples(run, sample, &mut rng, robp.alphabet(), "the program accepts nothing");
    }
}

fn main() {
    // Subcommand dispatch: `serve` and `query` are the service surface,
    // `robp` the branching-program substrate; anything else is the
    // classic one-shot CLI.
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("serve") => std::process::exit(serve_main(&argv[1..])),
        Some("query") => return query_main(&argv[1..]),
        Some("robp") => return robp_main(&argv[1..]),
        _ => {}
    }

    let args = parse_args();
    if let Some(path) = &args.trace_out {
        match JsonlSink::create(path) {
            Ok(sink) => {
                fpras_core::obs::install_sink(Box::new(sink));
            }
            Err(e) => {
                eprintln!("cannot open trace file {path}: {e}");
                std::process::exit(2);
            }
        }
    }
    let nfa = load_automaton_or_exit(args.regex.as_deref(), args.file.as_deref());
    eprintln!(
        "automaton: {} states, {} transitions, alphabet {:?}",
        nfa.num_states(),
        nfa.num_transitions(),
        nfa.alphabet()
    );

    if args.dot {
        print!("{}", dot::to_dot(&nfa));
        return;
    }

    if args.enumerate > 0 {
        let words = enumerate_slice(&nfa, args.n, Some(args.enumerate));
        println!("first {} word(s) of L(A_{}):", words.len(), args.n);
        for w in &words {
            println!("  {}", w.display(nfa.alphabet()));
        }
    }

    let mut rng = SmallRng::seed_from_u64(args.seed);
    let label = format!("|L(A_{})|", args.n);
    // The FPRAS variants keep their run for sampling; other methods don't.
    let mut fpras_run: Option<FprasRun> = None;
    match args.method {
        Method::Fpras => {
            let params = Params::practical(args.eps, args.delta, nfa.num_states(), args.n);
            let threads = args.threads.unwrap_or(0);
            fpras_run = Some(run_fpras(&label, &params, threads, args.stats, || {
                if threads == 0 {
                    FprasRun::run(&nfa, args.n, &params, &mut rng)
                } else {
                    run_parallel(&nfa, args.n, &params, args.seed, threads)
                }
            }));
        }
        Method::PathIs => {
            // Trial budget chosen like naive MC's: Chernoff at density 1.
            let trials = ((3.0 * (2.0 / args.delta).ln()) / (args.eps * args.eps)).ceil() as u64;
            match path_importance_sampling(&nfa, args.n, trials.max(100), &mut rng) {
                Some(r) => {
                    report_estimate(&label, r.estimate);
                    eprintln!(
                        "  ({} trials, rel. std. error {:.4}, max ambiguity {:.0})",
                        r.trials, r.rel_std_error, r.max_ambiguity
                    );
                    if r.rel_std_error > args.eps / 2.0 {
                        eprintln!(
                            "  warning: high variance — the instance is ambiguous; \
                             prefer --method fpras"
                        );
                    }
                }
                None => report_estimate(&label, ExtFloat::ZERO),
            }
        }
        Method::ExactDp => match count_exact(&nfa, args.n) {
            Ok(c) => println!("exact |L(A_{})| = {c}", args.n),
            Err(e) => {
                eprintln!("exact DP failed: {e}");
                std::process::exit(1);
            }
        },
        Method::ExactBdd => match fpras_bdd::compile_slice(&nfa, args.n) {
            Ok(compiled) => {
                println!("exact |L(A_{})| = {}", args.n, compiled.count());
                eprintln!("  ({} BDD nodes)", compiled.bdd.num_nodes());
            }
            Err(e) => {
                eprintln!("BDD compilation failed: {e}");
                std::process::exit(1);
            }
        },
    }

    if args.exact {
        if let Some(run) = &fpras_run {
            report_exact(&label, run.estimate(), count_exact(&nfa, args.n), args.eps);
        }
    }

    if args.sample > 0 {
        match fpras_run {
            Some(run) => {
                print_samples(run, args.sample, &mut rng, nfa.alphabet(), "language slice is empty")
            }
            None => eprintln!("--sample requires --method fpras"),
        }
    }
    // Flush and close the --trace-out sink (the process would otherwise
    // exit without draining the buffered writer).
    fpras_core::obs::take_sink();
}
