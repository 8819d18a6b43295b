//! The traced run's instrumentation.
//!
//! Two sources, both outside the program: a [`TraceSink`] that folds the
//! engine's `Pass` events into self time per (level, phase), and spans
//! the benchmark records around each public call it makes. A pass always
//! runs inside the call that caused it, so the passes seen during a span
//! are that span's children; the span's self time is what no pass
//! explains (`engine.unattributed_s`).

use fpras_core::obs::{self, TraceEvent, TraceSink};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The engine's level phases, in execution order.
pub const PHASES: [&str; 5] = ["plan", "count", "share", "sample", "merge"];

/// Pass wall time folded per level and phase, in microseconds.
#[derive(Debug, Default, Clone)]
pub struct PhaseFold {
    /// Self time of each level's phases, in [`PHASES`] order.
    pub by_level: BTreeMap<usize, [u64; PHASES.len()]>,
    /// Sum over every pass.
    pub total_us: u64,
}

impl PhaseFold {
    /// Total time of one phase over all levels, in seconds.
    pub fn phase_s(&self, phase: &str) -> f64 {
        let Some(i) = PHASES.iter().position(|p| *p == phase) else {
            return 0.0;
        };
        self.by_level.values().map(|us| us[i]).sum::<u64>() as f64 / 1e6
    }

    /// One JSON object: level → per-phase microseconds in [`PHASES`] order.
    pub fn by_level_json(&self) -> String {
        let body: Vec<String> = self
            .by_level
            .iter()
            .map(|(level, us)| {
                let cols: Vec<String> = us.iter().map(u64::to_string).collect();
                format!("\"{level}\": [{}]", cols.join(", "))
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A [`TraceSink`] that keeps only what the per-layer metrics need.
struct FoldSink(Arc<Mutex<PhaseFold>>);

impl TraceSink for FoldSink {
    fn emit(&mut self, event: &TraceEvent) {
        if let TraceEvent::Pass { level, phase, wall_us, .. } = event {
            let mut fold = self.0.lock().expect("phase fold lock poisoned");
            if let Some(i) = PHASES.iter().position(|p| p == phase) {
                fold.by_level.entry(*level).or_default()[i] += wall_us;
            }
            fold.total_us += wall_us;
        }
    }
}

/// Handle on the installed sink; uninstalls it when dropped.
pub struct Tracer {
    fold: Arc<Mutex<PhaseFold>>,
}

impl Tracer {
    /// Installs the folding sink as the process-global trace sink.
    pub fn install() -> Tracer {
        let fold = Arc::new(Mutex::new(PhaseFold::default()));
        obs::install_sink(Box::new(FoldSink(Arc::clone(&fold))));
        Tracer { fold }
    }

    /// Pass time seen so far, in microseconds.
    pub fn pass_us(&self) -> u64 {
        self.fold.lock().expect("phase fold lock poisoned").total_us
    }

    /// Returns the fold so far and starts a new one.
    pub fn take(&self) -> PhaseFold {
        std::mem::take(&mut *self.fold.lock().expect("phase fold lock poisoned"))
    }
}

impl Drop for Tracer {
    fn drop(&mut self) {
        drop(obs::take_sink());
    }
}

/// Spans the benchmark recorded around its calls into the program.
#[derive(Debug, Default)]
pub struct Spans {
    /// Durations per layer, in nanoseconds.
    pub by_layer: BTreeMap<&'static str, Vec<u64>>,
    /// Summed duration of the spans that contained engine passes.
    pub enclosing_s: f64,
    /// Summed pass time inside those spans.
    pub pass_s: f64,
    /// Spans whose passes add up to more than the span itself.
    pub closure_violations: u64,
}

impl Spans {
    /// Records one span of `layer` lasting `dur`, during which the
    /// engine reported `pass_us` of pass time.
    pub fn record(&mut self, layer: &'static str, dur: Duration, pass_us: u64) {
        self.by_layer.entry(layer).or_default().push(dur.as_nanos() as u64);
        if pass_us > 0 {
            self.enclosing_s += dur.as_secs_f64();
            self.pass_s += pass_us as f64 / 1e6;
            // Pass times are truncated to whole microseconds, so they
            // can only undershoot: any excess breaks the closure law.
            if pass_us as f64 > dur.as_secs_f64() * 1e6 {
                self.closure_violations += 1;
            }
        }
    }

    /// Median duration of one layer's spans, in nanoseconds (0 when the
    /// workload never called that layer).
    pub fn median_ns(&self, layer: &str) -> f64 {
        self.by_layer.get(layer).map_or(0.0, |v| crate::stats::median_ns(v))
    }

    /// Span time no engine pass accounts for, in seconds.
    pub fn unattributed_s(&self) -> f64 {
        self.enclosing_s - self.pass_s
    }
}

/// A traced unit's recorder: the installed sink plus the span log.
pub struct Probe<'a> {
    /// The installed folding sink.
    pub tracer: &'a Tracer,
    /// Where spans are recorded.
    pub spans: &'a mut Spans,
}

/// Runs `f`, recording it as a span of `layer` when `probe` is set.
pub fn span<T>(probe: &mut Option<Probe<'_>>, layer: &'static str, f: impl FnOnce() -> T) -> T {
    let Some(p) = probe else {
        return f();
    };
    let before = p.tracer.pass_us();
    let start = std::time::Instant::now();
    let out = f();
    let dur = start.elapsed();
    p.spans.record(layer, dur, p.tracer.pass_us() - before);
    out
}
