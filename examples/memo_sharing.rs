//! Memo lifecycle and sample-pass frontier sharing, made visible.
//!
//! ```text
//! cargo run --release --example memo_sharing
//! ```
//!
//! Runs the `contains11` fixture (`examples/data/contains11.nfa`)
//! through the engine once and prints the `RunStats` counters of the
//! leveled copy-on-write memo (DESIGN.md §2.2) and the frontier-sharing
//! pre-pass (D9):
//!
//! * `memo.snapshots` / `memo.entries_shared` — every sampled cell took
//!   an O(1) snapshot of the level-start base layer; `entries_shared`
//!   is the entry-clone volume the old flat memo would have paid.
//! * `memo.overlay_entries` — the only thing still copied per cell: the
//!   thin overlay of entries the cell inserted itself.
//! * `share.frontiers_preestimated` / `share.preestimate_hits` — hot
//!   sampler frontiers estimated once before the sample pass, and how
//!   often per-cell sampling was answered by those shared entries.
//!
//! Sampler union randomness is frontier-keyed, so a pre-estimated entry
//! holds exactly the value a cell would have computed on a miss:
//! sharing changes work, never output.

use fpras_automata::parse;
use fpras_core::{run_parallel, Params, RunStats};

const FIXTURE: &str = include_str!("data/contains11.nfa");

fn print_run(label: &str, stats: &RunStats) {
    println!("{label}");
    println!("  membership ops            {:>10}", stats.membership_ops);
    println!("  sampler memo hits/misses  {:>10} / {}", stats.memo_hits, stats.memo_misses);
    println!("  memo commits              {:>10}", stats.memo.commits);
    println!("  memo entries promoted     {:>10}", stats.memo.entries_promoted);
    println!("  memo snapshots (CoW)      {:>10}", stats.memo.snapshots);
    println!("  memo entries shared       {:>10}", stats.memo.entries_shared);
    println!("  memo overlay entries      {:>10}", stats.memo.overlay_entries);
    println!("  share pre-estimated       {:>10}", stats.share.frontiers_preestimated);
    println!("  share pre-estimate hits   {:>10}", stats.share.preestimate_hits);
    println!("  share already seeded      {:>10}", stats.share.keys_already_seeded);
}

fn main() {
    let nfa = parse::from_text(FIXTURE).expect("shipped fixture parses");
    let (n, eps, delta, seed, threads) = (24, 0.2, 0.05, 42, 4);
    println!(
        "contains11 fixture: {} states, n = {n}, ε = {eps}, δ = {delta}, \
         deterministic policy × {threads} threads\n",
        nfa.num_states()
    );

    let params = Params::practical(eps, delta, nfa.num_states(), n);
    let run = run_parallel(&nfa, n, &params, seed, threads).expect("run");
    print_run("memo and sharing counters:", run.stats());

    assert!(run.stats().share.preestimate_hits > 0, "sharing must actually fire on contains11");
    assert!(run.stats().memo.entries_shared > 0, "snapshots must share the base layer");

    println!(
        "\nestimate |L(A_{n})| ≈ {}\n\
         sampler lookups answered by shared pre-estimates: {}\n\
         entry clones avoided by the CoW memo: {} (flat-memo volume), \
         only {} overlay entries copied",
        run.estimate(),
        run.stats().share.preestimate_hits,
        run.stats().memo.entries_shared,
        run.stats().memo.overlay_entries,
    );
}
