//! The traced run: spans recorded from outside the engine.
//!
//! [`TracingExecutor`] implements the engine's public
//! [`StepExecutor`] seam.  It executes every task of a window exactly
//! as [`LocalExecutor`] would — through the same task-level entry
//! points, one task at a time — and records one span per `run` →
//! `window` → `block_step` / `transfer`, all carrying the run's id.
//! Spans stay in memory until the run ends.  Spans inside the engine
//! and the layers below are a later change (the ROADMAP trace spine).

use crate::json::Value;
use dstress_core::engine::RuntimeError;
use dstress_core::exec::execute_block_step_task;
use dstress_core::{
    BlockStepOutcome, BlockStepTask, LocalExecutor, StepContext, StepExecutor, TransferOutcome,
    TransferTask,
};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Index of this span in the trace.
    pub id: usize,
    /// The span that caused this one (`None` for the run itself).
    pub parent: Option<usize>,
    /// The identifier every span of one release shares.
    pub run: u64,
    /// `run`, `window`, `block_step` or `transfer`.
    pub name: &'static str,
    /// Start, in seconds since the run span opened.
    pub start: f64,
    /// End, in seconds since the run span opened.
    pub end: f64,
}

impl Span {
    /// The span's duration in seconds.
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

struct Recorder {
    spans: Vec<Span>,
    /// The window span currently open: the engine runs a window's block
    /// steps, builds that window's transfer tasks, then runs them, so a
    /// window opens at `run_block_steps` and closes when the following
    /// `run_transfers` returns (or, in the final round, with its last
    /// block step).
    open_window: Option<usize>,
}

/// A [`StepExecutor`] that records spans around every task.
pub struct TracingExecutor {
    run: u64,
    epoch: Instant,
    recorder: Mutex<Recorder>,
}

impl TracingExecutor {
    /// Opens the run span; the clock starts now.
    pub fn start(run: u64) -> Self {
        TracingExecutor {
            run,
            epoch: Instant::now(),
            recorder: Mutex::new(Recorder {
                spans: vec![Span {
                    id: 0,
                    parent: None,
                    run,
                    name: "run",
                    start: 0.0,
                    end: 0.0,
                }],
                open_window: None,
            }),
        }
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    fn recorder(&self) -> std::sync::MutexGuard<'_, Recorder> {
        self.recorder
            .lock()
            .expect("no span is recorded while another recording panicked")
    }

    /// Closes the run span and returns the finished trace.
    pub fn finish(self) -> Trace {
        let end = self.now();
        let mut recorder = self
            .recorder
            .into_inner()
            .expect("no span is recorded while another recording panicked");
        recorder.close_window();
        recorder.spans[0].end = end;
        Trace {
            spans: recorder.spans,
        }
    }
}

impl Recorder {
    fn push(&mut self, parent: usize, run: u64, name: &'static str, start: f64, end: f64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: Some(parent),
            run,
            name,
            start,
            end,
        });
        id
    }

    /// A window that saw no transfers ends with its last child.
    fn close_window(&mut self) {
        if let Some(window) = self.open_window.take() {
            let last_child_end = self
                .spans
                .iter()
                .filter(|s| s.parent == Some(window))
                .map(|s| s.end)
                .fold(self.spans[window].start, f64::max);
            self.spans[window].end = last_child_end;
        }
    }
}

impl StepExecutor for TracingExecutor {
    fn run_block_steps(
        &self,
        ctx: &StepContext<'_>,
        tasks: Vec<BlockStepTask>,
    ) -> Result<Vec<BlockStepOutcome>, RuntimeError> {
        let window = {
            let start = self.now();
            let mut recorder = self.recorder();
            recorder.close_window();
            let window = recorder.push(0, self.run, "window", start, start);
            recorder.open_window = Some(window);
            window
        };
        let mut outcomes = Vec::with_capacity(tasks.len());
        let mut timings = Vec::with_capacity(tasks.len());
        for task in tasks {
            let start = self.now();
            let outcome = execute_block_step_task(
                ctx.update_circuit,
                ctx.config.gmw_batching,
                ctx.config.transport,
                ctx.state_bits,
                ctx.message_bits,
                task,
            )?;
            timings.push((start, self.now()));
            outcomes.push(outcome);
        }
        let mut recorder = self.recorder();
        for (start, end) in timings {
            recorder.push(window, self.run, "block_step", start, end);
        }
        Ok(outcomes)
    }

    fn run_transfers(
        &self,
        ctx: &StepContext<'_>,
        tasks: Vec<TransferTask>,
    ) -> Result<Vec<TransferOutcome>, RuntimeError> {
        let mut outcomes = Vec::with_capacity(tasks.len());
        let mut timings = Vec::with_capacity(tasks.len());
        for task in tasks {
            let start = self.now();
            // The real-crypto transfer path is private to the engine;
            // `LocalExecutor` with a one-task batch is its public door
            // (a one-item `parallel_map` runs on the calling thread).
            let mut one = LocalExecutor.run_transfers(ctx, vec![task])?;
            timings.push((start, self.now()));
            outcomes.push(one.pop().expect("one task yields one outcome"));
        }
        let end = self.now();
        let mut recorder = self.recorder();
        let window = match recorder.open_window.take() {
            Some(window) => window,
            // Transfers without preceding block steps do not happen in
            // the engine's schedule; give them a window of their own.
            None => {
                let start = timings.first().map_or(end, |&(start, _)| start);
                recorder.push(0, self.run, "window", start, end)
            }
        };
        for (start, end) in timings {
            recorder.push(window, self.run, "transfer", start, end);
        }
        recorder.spans[window].end = end;
        Ok(outcomes)
    }
}

/// A finished trace: span 0 is the run, every other span has a parent.
#[derive(Clone, Debug)]
pub struct Trace {
    /// All spans, in the order they were recorded.
    pub spans: Vec<Span>,
}

impl Trace {
    /// Durations, in seconds, of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// Total seconds covered by spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// A span's self time: its duration minus what its children cover.
    pub fn self_seconds(&self, id: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::seconds)
            .sum();
        self.spans[id].seconds() - children
    }

    /// Summed self time of every span named `name`.
    pub fn self_total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| self.self_seconds(s.id))
            .sum()
    }

    /// The trace as JSON: one object per span.
    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Value::obj([
                        ("id", Value::Num(s.id as f64)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                        ),
                        ("run", Value::Num(s.run as f64)),
                        ("name", Value::str(s.name)),
                        ("start_s", Value::Num(s.start)),
                        ("end_s", Value::Num(s.end)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dstress_core::{
        ConcurrencyMode, CounterProgram, DStressConfig, DStressRun, DStressRuntime,
    };
    use dstress_graph::generate::ring_with_chords;
    use dstress_math::rng::Xoshiro256;

    fn assert_identical(a: &DStressRun, b: &DStressRun) {
        assert_eq!(a.noised_output.to_bits(), b.noised_output.to_bits());
        assert_eq!(a.ideal_output.to_bits(), b.ideal_output.to_bits());
        assert_eq!(a.phases.total_counts(), b.phases.total_counts());
        assert_eq!(
            a.phases.total_counts().wire_bytes,
            b.phases.total_counts().wire_bytes
        );
        assert_eq!(
            a.traffic.sorted_node_entries(),
            b.traffic.sorted_node_entries()
        );
    }

    #[test]
    fn tracing_executor_is_bit_identical_to_the_local_executor() {
        let mut rng = Xoshiro256::new(11);
        let graph = ring_with_chords(9, 2, 3, &mut rng);
        let program = CounterProgram {
            width: 8,
            rounds: 2,
        };
        // Both transfer modes, so both arms of `run_transfers` are pinned.
        for base in [DStressConfig::small_test(2), DStressConfig::benchmark(2)] {
            for concurrency in [
                ConcurrencyMode::Sequential,
                ConcurrencyMode::Threaded { threads: 2 },
            ] {
                let runtime = DStressRuntime::new(base.clone().with_concurrency(concurrency));
                let local = runtime.execute(&graph, &program).unwrap();
                let tracer = TracingExecutor::start(7);
                let traced = runtime.execute_with(&graph, &program, &tracer).unwrap();
                let trace = tracer.finish();
                assert_identical(&local, &traced);

                // One block step per vertex per step, one transfer per
                // edge per round, one window per step (single window).
                let steps = program.rounds as usize + 1;
                assert_eq!(
                    trace.durations("block_step").len(),
                    graph.vertex_count() * steps
                );
                assert_eq!(
                    trace.durations("transfer").len(),
                    graph.edge_count() * program.rounds as usize
                );
                assert_eq!(trace.durations("window").len(), steps);
            }
        }
    }

    #[test]
    fn spans_nest_and_self_times_add_up() {
        let mut rng = Xoshiro256::new(3);
        let graph = ring_with_chords(6, 1, 2, &mut rng);
        let program = CounterProgram {
            width: 8,
            rounds: 1,
        };
        let tracer = TracingExecutor::start(42);
        DStressRuntime::new(DStressConfig::benchmark(2))
            .execute_with(&graph, &program, &tracer)
            .unwrap();
        let trace = tracer.finish();

        let run = &trace.spans[0];
        assert_eq!((run.name, run.parent), ("run", None));
        for span in &trace.spans[1..] {
            assert_eq!(span.run, 42);
            let parent = &trace.spans[span.parent.expect("only the run has no parent")];
            let expected_parent = if span.name == "window" {
                "run"
            } else {
                "window"
            };
            assert_eq!(parent.name, expected_parent);
            assert!(parent.start <= span.start && span.end <= parent.end);
            assert!(span.start <= span.end);
        }
        // Self times partition the run: run self + window self + leaves.
        let leaves = trace.total("block_step") + trace.total("transfer");
        let sum = trace.self_seconds(0) + trace.self_total("window") + leaves;
        assert!((sum - run.seconds()).abs() < 1e-9);
        assert!(trace.self_total("window") >= 0.0);

        let json = crate::json::parse(&trace.to_json().to_line()).unwrap();
        assert_eq!(json.as_arr().unwrap().len(), trace.spans.len());
    }
}
