//! Regenerates Table I: average model-update time per method (supervised methods retrain
//! daily on accumulated data; RL methods update after every feedback).
//!
//! Accepts `--threads N` (or `CROWD_THREADS`) and hands every policy the pool for its
//! internal parallelism — for the DDQN agent that is the concurrent two-learner dispatch
//! and the pooled packed kernels. When the pool has more than one thread, each method is
//! additionally replayed once at `threads = 1` and a wall-clock speedup column reports
//! `serial / pooled` run time (results themselves are bit-identical at any thread count,
//! so only wall clock can differ).
//!
//! # Checkpoint / resume
//!
//! Long sweeps survive kills: `--checkpoint-every N` snapshots the in-flight replay
//! every `N` evaluated arrivals (atomic rename, so a kill mid-write keeps the previous
//! snapshot) to `--checkpoint-path` (default `table1.ckpt`), together with the finished
//! methods' table rows; `--resume PATH` restores the rows and continues the interrupted
//! replay **mid-stream** — the resumed sweep's quality numbers are bit-identical to an
//! uninterrupted one (the contract of `tests/checkpoint_equivalence.rs`). Timers are
//! measurements and are not checkpointed, so the resumed method's time columns average
//! over the arrivals replayed after the resume only. Methods whose
//! policies do not implement checkpointing (`Policy::checkpoint_state`) run without
//! mid-replay snapshots; a policy-boundary snapshot is still written after each method
//! so a resume never repeats finished methods. The serial-twin speedup column stays
//! enabled with `--checkpoint-every` as long as no mid-replay snapshot actually fires
//! during a method's run — only when one does (so the pooled wall clock includes
//! snapshot bookkeeping the twin would not pay), or when the run is a mid-replay
//! resume's tail, is that method's speedup cell "-" (an incomparable measurement is
//! worse than no measurement).

use crowd_baselines::Benefit;
use crowd_ckpt::{CkptError, Fs, Snapshot, SnapshotFile, StateWriter};
use crowd_experiments::{
    experiment_dataset, experiment_scale, policies_for_benefit, print_table, run_policy,
    RunnerConfig, Scale, Session,
};
use crowd_sim::{BoxedPolicy, Env};
use crowd_tensor::ThreadPool;
use std::path::PathBuf;
use std::time::Instant;

/// Command-line checkpoint options.
struct CkptOptions {
    every: Option<usize>,
    path: PathBuf,
    resume: Option<PathBuf>,
}

impl CkptOptions {
    fn from_args() -> Self {
        let mut every = None;
        let mut path = PathBuf::from("table1.ckpt");
        let mut resume = None;
        let mut args = std::env::args().peekable();
        while let Some(arg) = args.next() {
            let mut value_of = |flag: &str| -> Option<String> {
                if arg == flag {
                    args.next()
                } else {
                    arg.strip_prefix(&format!("{flag}=")).map(str::to_string)
                }
            };
            if let Some(v) = value_of("--checkpoint-every") {
                match v.parse::<usize>() {
                    Ok(n) if n > 0 => every = Some(n),
                    _ => eprintln!("--checkpoint-every expects a positive integer (got {v:?})"),
                }
            } else if let Some(v) = value_of("--checkpoint-path") {
                path = PathBuf::from(v);
            } else if let Some(v) = value_of("--resume") {
                resume = Some(PathBuf::from(v));
            }
        }
        CkptOptions {
            every,
            path,
            resume,
        }
    }

    fn active(&self) -> bool {
        self.every.is_some() || self.resume.is_some()
    }
}

/// The `table1.meta` section: how many methods are already finished, and their rows.
fn encode_meta(next_policy: usize, rows: &[Vec<String>]) -> Vec<u8> {
    let mut w = StateWriter::new();
    w.put_usize(next_policy);
    w.save(&rows.to_vec());
    w.into_bytes()
}

fn decode_meta(file: &SnapshotFile) -> Result<(usize, Vec<Vec<String>>), CkptError> {
    let mut r = file.reader("table1.meta")?;
    let next_policy = r.take_usize()?;
    let rows: Vec<Vec<String>> = r.decode()?;
    r.finish("table1 meta")?;
    Ok((next_policy, rows))
}

/// Writes a policy-boundary snapshot (rows only, no in-flight session).
fn write_boundary(opts: &CkptOptions, next_policy: usize, rows: &[Vec<String>]) {
    let mut snap = Snapshot::new();
    snap.put_raw("table1.meta", encode_meta(next_policy, rows));
    if let Err(e) = snap.write_to(&Fs::real(), &opts.path) {
        eprintln!("warning: could not write checkpoint: {e}");
    }
}

/// Steps one replay to completion, snapshotting every `opts.every` evaluated arrivals
/// when the policy supports it. `session` may arrive mid-replay (resume). The second
/// return says whether any mid-replay snapshot was actually attempted — when none fired
/// (short run, large `--checkpoint-every`), the measured wall clock carried no snapshot
/// bookkeeping and the serial-twin speedup comparison is still fair.
fn run_checkpointed<E: Env + crowd_ckpt::SaveState>(
    mut session: Session<E>,
    policy: &mut BoxedPolicy,
    opts: &CkptOptions,
    policy_index: usize,
    rows: &[Vec<String>],
) -> (crowd_experiments::RunOutcome, bool) {
    // `--resume` without `--checkpoint-every` is legal (finish the sweep, write no
    // further snapshots): saturate so `resumed arrivals + MAX` cannot overflow.
    let every = opts.every.unwrap_or(usize::MAX);
    let mut supported = true;
    let mut fired = false;
    let mut next_checkpoint_at = session.evaluated_arrivals().saturating_add(every);
    while session.step(policy.as_mut()) {
        if supported && session.evaluated_arrivals() >= next_checkpoint_at {
            fired = true;
            let mut snap = Snapshot::new();
            snap.put_raw("table1.meta", encode_meta(policy_index, rows));
            match session.checkpoint_into(policy.as_ref(), &mut snap, "") {
                Ok(()) => {
                    if let Err(e) = snap.write_to(&Fs::real(), &opts.path) {
                        eprintln!("warning: could not write checkpoint: {e}");
                    }
                }
                Err(CkptError::Unsupported { .. }) => {
                    eprintln!(
                        "note: {} does not support checkpointing; its replay restarts from scratch on resume",
                        policy.name()
                    );
                    supported = false;
                }
                Err(e) => eprintln!("warning: checkpoint failed: {e}"),
            }
            next_checkpoint_at = session.evaluated_arrivals().saturating_add(every);
        }
    }
    (session.finish(policy.name()), fired)
}

/// One method's replay, generic over the environment: resume the in-flight session when
/// this is the resumed method, then run it (checkpointed when requested). Returns the
/// outcome plus whether a mid-replay snapshot fired and whether the run was a resumed
/// tail — the two conditions that invalidate the serial-twin speedup comparison.
fn run_method<E: Env + crowd_ckpt::SaveState + crowd_ckpt::LoadState>(
    mut session: Session<E>,
    policy: &mut BoxedPolicy,
    opts: &CkptOptions,
    index: usize,
    first_policy: usize,
    resume_file: Option<&SnapshotFile>,
    rows: &[Vec<String>],
) -> (crowd_experiments::RunOutcome, bool, bool) {
    if !opts.active() {
        session.run(policy.as_mut());
        return (session.finish(policy.name()), false, false);
    }
    let mut resumed_mid_replay = false;
    if index == first_policy {
        if let Some(file) = resume_file.filter(|f| f.contains("session")) {
            if let Err(e) = session.resume(policy.as_mut(), file) {
                eprintln!("cannot resume the in-flight {} replay: {e}", policy.name());
                std::process::exit(1);
            }
            eprintln!(
                "  continuing mid-replay at {} evaluated arrivals",
                session.evaluated_arrivals()
            );
            resumed_mid_replay = true;
        }
    }
    let (outcome, fired) = run_checkpointed(session, policy, opts, index, rows);
    (outcome, fired, resumed_mid_replay)
}

fn main() {
    let scale = experiment_scale();
    let pool = crowd_experiments::experiment_thread_pool();
    let opts = CkptOptions::from_args();
    let dataset = experiment_dataset();
    // The massive tier skips the warm-up window: gathering owned warm-start history
    // over a ~1M-worker pool would dwarf the replay itself.
    let cfg = if scale == Scale::Massive {
        RunnerConfig {
            warmup_months: 0,
            ..RunnerConfig::default()
        }
    } else {
        RunnerConfig::default()
    };
    println!(
        "Table I reproduction — model update efficiency ({scale:?} scale, {} thread(s))",
        pool.threads()
    );
    if scale == Scale::Massive {
        println!("(no warm-up window)");
    }
    println!("(Random and Greedy CS are included for completeness; the paper omits them because they have no model to update.)");

    // Restore finished rows and locate the in-flight method when resuming.
    let (mut rows, first_policy, resume_file) = match &opts.resume {
        None => (Vec::new(), 0, None),
        Some(path) => match SnapshotFile::read(&Fs::real(), path) {
            Ok(file) => match decode_meta(&file) {
                Ok((next_policy, rows)) => {
                    println!(
                        "resuming from {}: {} finished method(s){}",
                        path.display(),
                        rows.len(),
                        if file.contains("session") {
                            ", one mid-replay"
                        } else {
                            ""
                        }
                    );
                    (rows, next_policy, Some(file))
                }
                Err(e) => {
                    eprintln!("cannot resume: {e}");
                    std::process::exit(1);
                }
            },
            Err(e) => {
                eprintln!("cannot resume from {}: {e}", path.display());
                std::process::exit(1);
            }
        },
    };

    let pooled_lineup = policies_for_benefit(&dataset, Benefit::Worker, scale);

    for (index, mut policy) in pooled_lineup.into_iter().enumerate().skip(first_policy) {
        eprintln!("running {} ...", policy.name());
        policy.set_thread_pool(pool);
        let started = Instant::now();
        let (outcome, checkpoint_fired, resumed_mid_replay) = run_method(
            Session::for_dataset(&dataset, &cfg),
            &mut policy,
            &opts,
            index,
            first_policy,
            resume_file.as_ref(),
            &rows,
        );
        let pooled_wall = started.elapsed();

        // The serial wall-clock twin for the speedup column, built lazily only once the
        // pooled run is known to be comparable: there must be a multi-thread pool to
        // compare against, the pooled wall clock must not include snapshot bookkeeping
        // (no mid-replay snapshot fired — `--checkpoint-every` merely being set is fine),
        // and it must cover the whole replay (not a mid-replay resume's tail). The
        // massive tier skips the twin — its replay is benchmarked (arrivals/s, RSS) by
        // `benches/replay_scale.rs` instead of re-run twice here.
        let comparable = !pool.is_serial()
            && !checkpoint_fired
            && !resumed_mid_replay
            && scale != Scale::Massive;
        let serial_twin = if comparable {
            policies_for_benefit(&dataset, Benefit::Worker, scale)
                .into_iter()
                .nth(index)
        } else {
            None
        };
        let speedup_column = match serial_twin {
            None => "-".to_string(),
            Some(mut twin) => {
                twin.set_thread_pool(ThreadPool::serial());
                let serial_started = Instant::now();
                run_policy(&dataset, twin.as_mut(), &cfg);
                let serial_wall = serial_started.elapsed();
                format!(
                    "{:.2}x",
                    serial_wall.as_secs_f64() / pooled_wall.as_secs_f64().max(1e-9)
                )
            }
        };

        // Per-gradient-update learner wall time, for policies that track it (the DDQN
        // agent times every packed `learn` call); "-" for model-free / daily-retrained
        // methods whose whole update cost is already the observe column. With concurrent
        // learner branches the mean is taken over the CRITICAL PATH (the slower branch,
        // which is what `observe` actually waited for) — summing branch wall times would
        // double-count the overlapped span.
        let learn_column = match policy.learner_timing() {
            Some(timing) if timing.updates() > 0 => {
                let branches: Vec<String> = timing
                    .branches
                    .iter()
                    .map(|b| format!("{} {:.6}s", b.name, b.total.as_secs_f64()))
                    .collect();
                format!("{:.6} [{}]", timing.mean_seconds(), branches.join(", "))
            }
            _ => "-".to_string(),
        };
        rows.push(vec![
            outcome.policy.clone(),
            format!("{:.6}", outcome.update_timer.mean_seconds()),
            format!("{:.6}", outcome.act_timer.mean_seconds()),
            learn_column,
            outcome.update_timer.count().to_string(),
            speedup_column,
        ]);
        if opts.active() {
            // Policy boundary: finished rows survive a kill between methods.
            write_boundary(&opts, index + 1, &rows);
        }
    }
    print_table(
        "Table I: average update time per method (seconds)",
        &[
            "method",
            "update (s)",
            "decide (s)",
            "learn (s, critical path [per-branch wall])",
            "# updates",
            "speedup vs 1 thread",
        ],
        &rows,
    );
    println!("\nExpected shape: the daily-retrained supervised models (Taskrec, Greedy NN) pay seconds per retraining, while the RL methods (LinUCB, DDQN) update in milliseconds after every feedback.");
    println!("The learn column isolates the gradient-update slice of observe for learner-backed methods: one packed minibatch graph per DDQN update, with the two DDQN branches dispatched concurrently when the pool allows (see ARCHITECTURE.md, \"Parallel execution\").");
}
