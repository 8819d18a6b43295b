//! In-process fuzzing of the serve protocol (`service::protocol`).
//!
//! Random lines are built from a verb table, numbers from tiny to far
//! past `u64::MAX`, stray flags and junk tokens, and fed through
//! [`Request::parse`] and [`Server::handle`] on a server whose selected
//! tenant is a small Serial session. Three properties hold per line:
//!
//! * nothing panics (a panic fails the property);
//! * every non-blank line other than `quit`/`exit` gets a response;
//! * every rejected line gets exactly one `error:` line.
//!
//! After each script the server must still open and serve a fresh
//! tenant, the in-process form of "the process never exits on bad
//! input".

use fpras_core::service::protocol::{Request, Response, Server, TenantSpec};
use fpras_core::QuotaConfig;
use proptest::prelude::*;

const VERBS: &[&str] = &[
    "open",
    "open",
    "open",
    "open",
    "use",
    "close",
    "estimate",
    "estimate",
    "range",
    "sample",
    "sample",
    "stats",
    "metrics",
    "trace",
    "quit",
    "exit",
    "frobnicate",
    "",
    "  ",
    "ESTIMATE",
];

/// Numbers from tiny to far past `u64::MAX`.
const NUMBERS: &[&str] = &[
    "0",
    "1",
    "2",
    "3",
    "5",
    "8",
    "9",
    "300",
    "5000",
    "-1",
    "10000",
    "10001",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999999999",
];

/// `open` flags, stray ones included.
const FLAGS: &[&str] = &[
    "--regex",
    "--file",
    "--eps",
    "--delta",
    "--seed",
    "--threads",
    "--threads",
    "--max-n",
    "--max-n",
    "--bogus",
    "--",
];

/// Non-numeric values and junk: regexes good and bad, float-ish
/// words, names, and a path that is a directory.
const JUNK: &[&str] =
    &["1*", "(0|1)*1", "(0|1", "0.5", "nan", "inf", "on", "é", "\u{7f}", "@dir", "a", "b", "t"];

const NAMES: &[&str] = &["a", "b", "c", "d", "t", "--regex"];

const REGEXES: &[&str] =
    &["1*", "(0|1)*1", "0(0|1)*", "(0|1)*11(0|1)*", "1*0?", "(0|1", "1{99999999}", ""];

/// Picks from `table`, or (one time in seven) from the junk table.
fn pick(table: &[&'static str], p: usize) -> &'static str {
    if p.is_multiple_of(7) {
        JUNK[p / 7 % JUNK.len()]
    } else {
        table[p % table.len()]
    }
}

/// One line from `picks`: the first picks the verb, the rest pick
/// verb-shaped arguments with junk mixed in. `open` lines lean towards
/// `open NAME --regex P FLAG VALUE…`, so many of them open a tenant.
/// `trace on PATH` creates `PATH`, so trace paths only ever point into
/// the temp directory: the directory itself, which cannot be opened as
/// a file, or one scratch file.
fn build_line(picks: &[usize]) -> String {
    let verb = VERBS[picks[0] % VERBS.len()];
    let mut tokens = vec![verb];
    for (i, &p) in picks[1..].iter().enumerate() {
        tokens.push(match verb {
            "open" if i == 0 => pick(NAMES, p),
            "open" if i == 1 && p % 4 != 0 => "--regex",
            "open" if i % 2 == 1 => pick(FLAGS, p),
            "open" => match tokens[i] {
                "--regex" => pick(REGEXES, p),
                "--file" => pick(&["@dir", "@file", "missing.nfa"], p),
                _ => pick(NUMBERS, p),
            },
            "use" | "close" => pick(NAMES, p),
            "trace" if i == 0 => ["on", "off", "@dir"][p % 3],
            "trace" => ["@dir", "@file"][p % 2],
            _ => pick(NUMBERS, p),
        });
    }
    // Mostly drop a dangling flag, so most `open` lines are well formed.
    if verb == "open" && tokens.len() % 2 == 1 && !picks[picks.len() - 1].is_multiple_of(3) {
        tokens.pop();
    }
    let tokens: Vec<String> = tokens
        .into_iter()
        .map(|t| match t {
            "@dir" => std::env::temp_dir().display().to_string(),
            "@file" => trace_file().display().to_string(),
            t => t.to_string(),
        })
        .collect();
    tokens.join(" ")
}

/// The one file `trace on` may create.
fn trace_file() -> std::path::PathBuf {
    std::env::temp_dir().join("fpras-proptest-protocol-trace.jsonl")
}

fn small_server() -> Server {
    let defaults = TenantSpec { max_n: 8, ..TenantSpec::default() };
    let mut server = Server::new(defaults, QuotaConfig::default());
    let opened = server.handle(Request::parse("open t --regex (0|1)*1").unwrap().unwrap());
    assert!(opened.to_string().starts_with("opened t"), "{opened}");
    server
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_line_gets_one_response_and_rejections_one_error(
        script in proptest::collection::vec(proptest::collection::vec(0usize..1_000, 1..8), 1..40)
    ) {
        let mut server = small_server();
        for picks in &script {
            let line = build_line(picks);
            let response = match Request::parse(&line) {
                Ok(None) => {
                    prop_assert!(line.trim().is_empty(), "parsed as blank: {line:?}");
                    continue;
                }
                Ok(Some(request)) => server.handle(request),
                Err(e) => Response::Error(e),
            };
            if response == Response::Quit {
                // The binary stops reading here; the server itself
                // stays usable, so the script goes on.
                prop_assert!(line.starts_with("quit") || line.starts_with("exit"), "{line:?}");
                prop_assert_eq!(response.to_string(), "");
                continue;
            }
            let rendered = response.to_string();
            prop_assert!(!rendered.is_empty(), "no response to {line:?}");
            prop_assert!(rendered.ends_with('\n'), "unterminated response to {line:?}");
            let errors = rendered.lines().filter(|l| l.starts_with("error: ")).count();
            let rejected = match &response {
                Response::Error(_) => true,
                Response::Answer(answer) => {
                    // No quota is configured, so no session is ever
                    // poisoned and recycled.
                    prop_assert!(!answer.recycled, "{line:?}");
                    answer.error.is_some()
                }
                _ => false,
            };
            prop_assert_eq!(errors, usize::from(rejected), "line {:?} -> {:?}", line, rendered);
            if matches!(response, Response::Error(_)) {
                prop_assert_eq!(rendered.lines().count(), 1, "{rendered:?}");
            }
        }
        // Whatever the script did, the server still serves.
        fpras_core::obs::take_sink();
        let _ = std::fs::remove_file(trace_file());
        let open = Request::parse("open final --regex 1* --threads 0 --max-n 4").unwrap().unwrap();
        prop_assert!(server.handle(open).to_string().starts_with("opened final"));
        let answer = server.handle(Request::parse("estimate 3").unwrap().unwrap());
        prop_assert_eq!(answer.to_string(), "estimate 3 = 1 (log2 0.000)\n");
    }
}
