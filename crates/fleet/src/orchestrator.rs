//! The fleet orchestrator: spawns workers, deals shards, keeps the run
//! alive through crashes, stalls and timeouts, and streams every finished
//! cell into the [`ResultsStore`] the moment it lands.
//!
//! Fault model: a worker can die at any point (panic, OOM-kill, operator
//! `kill -9`), stall silently, or write garbage. Each of those costs at
//! most the *unfinished* cells of the shard it was running — finished
//! cells were already durable — and the shard's remainder is requeued
//! with exponential backoff up to a bounded retry budget. A shard that
//! exhausts its budget is reported failed; the run continues, finishes
//! everything else, and `--resume` against the same results directory
//! picks up exactly the missing cells.

// Wall-clock and detached threads are this file's job (timeouts, backoff,
// per-worker stdout readers); allowlisted in clippy.toml terms here and in
// simlint's path allowlist (crates/simlint/src/rules.rs).
#![allow(clippy::disallowed_methods)]

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::Write as _;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::cell::CellSpec;
use crate::chaos::{ChaosEngine, Site};
use crate::env_knob;
use crate::protocol::{FromWorker, ToWorker};
use crate::shard::{plan_shards, Shard};
use crate::store::{JournalEntry, ResultsStore, StoreError};
use crate::worker::CellRunner;

/// Hard cap on one shard attempt, end to end.
const SHARD_TIMEOUT: Duration = Duration::from_secs(600);
/// Period of the fleet status summary on stderr.
const STATUS_EVERY: Duration = Duration::from_secs(5);

/// Orchestration knobs. `new(worker_cmd, workers)` gives production
/// defaults with env overrides (`FLEET_STALL_TIMEOUT_MS`, `FLEET_RETRIES`,
/// `FLEET_BACKOFF_MS`, `FLEET_RUN_DEADLINE_MS`) so tests can compress time
/// without plumbing flags.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// argv of the worker process (e.g. `["/path/repro", "worker"]`).
    pub worker_cmd: Vec<String>,
    /// Target number of live worker processes.
    pub workers: usize,
    /// Shard count; `None` plans 4 shards per worker (cheap insurance:
    /// smaller retry units, better tail balancing).
    pub shards: Option<usize>,
    /// Max silence (no heartbeat, no result) from a busy worker.
    pub stall_timeout: Duration,
    /// Retries per shard beyond the first attempt.
    pub max_retries: usize,
    /// Base requeue delay; doubles each attempt.
    pub backoff: Duration,
    /// Global wall-clock budget for the whole run: on expiry, in-flight
    /// shards are abandoned and the caller salvages whatever cells are
    /// already durable (`None` = no deadline).
    pub run_deadline: Option<Duration>,
}

fn env_ms(key: &str, default_ms: u64) -> Duration {
    Duration::from_millis(env_knob(key, default_ms, 0))
}

impl FleetConfig {
    /// Production defaults plus env overrides.
    pub fn new(worker_cmd: Vec<String>, workers: usize) -> FleetConfig {
        FleetConfig {
            worker_cmd,
            workers: workers.max(1),
            shards: None,
            stall_timeout: env_ms("FLEET_STALL_TIMEOUT_MS", 10_000),
            max_retries: env_knob("FLEET_RETRIES", 2, 0) as usize,
            backoff: env_ms("FLEET_BACKOFF_MS", 250),
            run_deadline: match env_knob("FLEET_RUN_DEADLINE_MS", 0, 0) {
                0 => None,
                ms => Some(Duration::from_millis(ms)),
            },
        }
    }
}

/// What a fleet run accomplished.
#[derive(Debug, Clone, Default)]
pub struct FleetReport {
    /// Cells in the plan.
    pub cells_total: usize,
    /// Cells already durable before this run started (resume skip).
    pub cells_prior: usize,
    /// Cells computed and persisted by this run.
    pub cells_completed: usize,
    /// Cells still missing after retries were exhausted, with the last
    /// known failure reason.
    pub failed_cells: Vec<(String, String)>,
    /// Shard attempts beyond each shard's first (retry pressure).
    pub retries: usize,
    /// Worker processes that died or were killed by the orchestrator.
    pub worker_deaths: usize,
    /// LLC accesses simulated by this run's completed cells.
    pub sim_accesses: u64,
    /// Orchestration wall clock.
    pub wall_seconds: f64,
    /// True when the run was cut short by `FLEET_RUN_DEADLINE_MS` — the
    /// failed cells were abandoned, not exhausted; the caller should
    /// salvage what is durable and report partial coverage.
    pub deadline_expired: bool,
    /// True when every worker spawn failed and the cells were executed by
    /// the in-process fallback runner instead.
    pub ran_inprocess: bool,
}

impl FleetReport {
    /// True when every planned cell is durable.
    pub fn complete(&self) -> bool {
        self.failed_cells.is_empty()
    }

    /// The final one-line retry/failure summary.
    pub fn summary_line(&self) -> String {
        format!(
            "# fleet: {done}/{total} cells done ({prior} resumed, {fresh} computed) · {retries} shard retries · {deaths} worker deaths · {failed} failed",
            done = self.cells_prior + self.cells_completed,
            total = self.cells_total,
            prior = self.cells_prior,
            fresh = self.cells_completed,
            retries = self.retries,
            deaths = self.worker_deaths,
            failed = self.failed_cells.len(),
        )
    }
}

/// Human-scaled count (`412k`, `1.3M`) for status lines.
fn fmt_si(n: f64) -> String {
    if n >= 1e9 {
        format!("{:.1}G", n / 1e9)
    } else if n >= 1e6 {
        format!("{:.1}M", n / 1e6)
    } else if n >= 1e3 {
        format!("{:.0}k", n / 1e3)
    } else {
        format!("{n:.0}")
    }
}

enum Event {
    Msg(FromWorker),
    /// Worker stdout closed (process death) or emitted garbage
    /// (protocol corruption — the reader stops and we recycle).
    Gone(String),
}

enum WorkerState {
    /// Spawned, waiting for `ready`.
    Starting,
    Idle,
    Busy {
        shard_ix: usize,
        started: Instant,
    },
}

struct WorkerSlot {
    child: Child,
    stdin: ChildStdin,
    state: WorkerState,
    last_seen: Instant,
}

struct ShardState {
    shard: Shard,
    attempts: usize,
    /// Cell IDs not yet durable; shrinks as `cell_done` lands.
    remaining: BTreeSet<String>,
    /// Last failure reason (worker death, timeout, cell errors).
    last_error: String,
    done: bool,
    failed: bool,
}

/// Runs `cells` across a worker fleet, persisting results into `store`.
/// Already-durable cells (per the store's journal, checksum-verified) are
/// skipped, which is both the `--resume` path and the mid-shard-crash
/// recovery path.
///
/// `runner` is the graceful-degradation path for total spawn failure:
/// when no worker process can be started at all (bad binary path, fork
/// limits, chaos), the remaining cells are executed in-process through it
/// — slower, single-process, but the run completes instead of dying.
pub fn run_fleet(
    cells: &[CellSpec],
    store: &ResultsStore,
    cfg: &FleetConfig,
    runner: &dyn CellRunner,
) -> Result<FleetReport, StoreError> {
    let t0 = Instant::now();
    let chaos = ChaosEngine::from_env();
    let done_prior = store.done_cell_ids()?;
    let mut report = FleetReport {
        cells_total: cells.len(),
        cells_prior: cells
            .iter()
            .filter(|c| done_prior.contains(&c.id()))
            .count(),
        ..FleetReport::default()
    };

    let pending: Vec<CellSpec> = cells
        .iter()
        .filter(|c| !done_prior.contains(&c.id()))
        .cloned()
        .collect();
    if pending.is_empty() {
        report.wall_seconds = t0.elapsed().as_secs_f64();
        eprintln!("{}", report.summary_line());
        return Ok(report);
    }

    let n_shards = cfg.shards.unwrap_or(cfg.workers * 4);
    let shards = plan_shards(&pending, n_shards);
    let mut states: Vec<ShardState> = shards
        .into_iter()
        .map(|shard| ShardState {
            remaining: shard.cells.iter().map(|c| c.id()).collect(),
            shard,
            attempts: 0,
            last_error: String::new(),
            done: false,
            failed: false,
        })
        .collect();
    let specs_by_id: BTreeMap<String, CellSpec> =
        pending.iter().map(|c| (c.id(), c.clone())).collect();
    eprintln!(
        "# fleet: {} cells ({} resumed) → {} shards across {} workers",
        cells.len(),
        report.cells_prior,
        states.len(),
        cfg.workers.min(states.len()),
    );

    // Requeue entries: (shard index, earliest assignment time).
    let mut queue: VecDeque<(usize, Instant)> = (0..states.len()).map(|i| (i, t0)).collect();

    let (tx, rx) = mpsc::channel::<(u64, Event)>();
    // BTreeMap so the idle-worker scan and status counts iterate in uid
    // order — worker scheduling stays reproducible given the same event
    // sequence.
    let mut workers: BTreeMap<u64, WorkerSlot> = BTreeMap::new();
    let mut next_uid: u64 = 0;
    let mut last_status = Instant::now();

    let spawn_worker = |uid: u64, tx: &mpsc::Sender<(u64, Event)>| -> Option<WorkerSlot> {
        if let Some(ch) = &chaos {
            if ch.fires(Site::SpawnFail, &uid.to_string()) {
                eprintln!("# fleet: chaos: refusing to spawn worker {uid}");
                return None;
            }
        }
        let mut cmd = Command::new(&cfg.worker_cmd[0]);
        cmd.args(&cfg.worker_cmd[1..])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        let mut child = match cmd.spawn() {
            Ok(c) => c,
            Err(e) => {
                eprintln!("# fleet: failed to spawn worker: {e}");
                return None;
            }
        };
        // Stdio::piped() was requested, so these are present on any sane
        // platform — but a panic here would kill the whole run, so treat
        // absence as a spawn failure and run degraded instead.
        let (Some(stdout), Some(stdin)) = (child.stdout.take(), child.stdin.take()) else {
            eprintln!("# fleet: worker spawned without piped stdio; discarding it");
            let _ = child.kill();
            let _ = child.wait();
            return None;
        };
        let tx = tx.clone();
        std::thread::spawn(move || {
            use std::io::BufRead as _;
            let reader = std::io::BufReader::new(stdout);
            for line in reader.lines() {
                let Ok(line) = line else { break };
                if line.trim().is_empty() {
                    continue;
                }
                match FromWorker::from_line(&line) {
                    Ok(msg) => {
                        if tx.send((uid, Event::Msg(msg))).is_err() {
                            return; // orchestrator gone
                        }
                    }
                    Err(e) => {
                        let _ = tx.send((uid, Event::Gone(format!("protocol corruption: {e}"))));
                        return;
                    }
                }
            }
            let _ = tx.send((uid, Event::Gone("worker exited".to_string())));
        });
        Some(WorkerSlot {
            child,
            stdin,
            state: WorkerState::Starting,
            last_seen: Instant::now(),
        })
    };

    // A shard attempt ended without completing: requeue with backoff or
    // mark permanently failed.
    let fail_attempt = |states: &mut Vec<ShardState>,
                        queue: &mut VecDeque<(usize, Instant)>,
                        report: &mut FleetReport,
                        shard_ix: usize,
                        reason: &str| {
        let n_shards = states.len();
        let st = &mut states[shard_ix];
        if st.done || st.failed {
            return;
        }
        st.last_error = reason.to_string();
        if st.attempts <= cfg.max_retries {
            let delay = cfg.backoff * 2u32.saturating_pow(st.attempts.saturating_sub(1) as u32);
            report.retries += 1;
            eprintln!(
                "# fleet: shard {}/{} ({}) attempt {} failed ({reason}); retrying in {:?}",
                st.shard.index + 1,
                n_shards,
                &st.shard.id[..8],
                st.attempts,
                delay
            );
            queue.push_back((shard_ix, Instant::now() + delay));
        } else {
            st.failed = true;
            eprintln!(
                "# fleet: shard {}/{} ({}) FAILED after {} attempts: {reason}",
                st.shard.index + 1,
                n_shards,
                &st.shard.id[..8],
                st.attempts,
            );
        }
    };

    let mut spawn_strikes = 0usize;
    loop {
        // Finished?
        if states.iter().all(|s| s.done || s.failed) {
            break;
        }

        // Global run deadline: abandon what is in flight and let the
        // caller salvage the durable cells into partial figures.
        if let Some(deadline) = cfg.run_deadline {
            if t0.elapsed() >= deadline {
                eprintln!(
                    "# fleet: run deadline ({:.1}s) expired; abandoning unfinished shards",
                    deadline.as_secs_f64()
                );
                report.deadline_expired = true;
                for st in states.iter_mut().filter(|s| !s.done && !s.failed) {
                    st.failed = true;
                    st.last_error = "run deadline expired".to_string();
                }
                break;
            }
        }

        // Keep the fleet at strength while work remains unassigned or in
        // flight.
        let open_shards = states.iter().filter(|s| !s.done && !s.failed).count();
        while workers.len() < cfg.workers.min(open_shards.max(1)) {
            let uid = next_uid;
            next_uid += 1;
            match spawn_worker(uid, &tx) {
                Some(slot) => {
                    workers.insert(uid, slot);
                }
                None => break, // spawn failure: run degraded with what we have
            }
        }
        if workers.is_empty() && open_shards > 0 {
            spawn_strikes += 1;
            if spawn_strikes < 3 {
                // Transient? Pause briefly and try again before deciding
                // the fleet is unspawnable.
                std::thread::sleep(Duration::from_millis(50));
                continue;
            }
            // Total spawn failure: execute the remaining cells in this
            // process. Slower and serial, but the run completes instead of
            // dying.
            eprintln!(
                "# fleet: cannot spawn workers after {spawn_strikes} attempts; \
                 falling back to in-process execution"
            );
            report.ran_inprocess = true;
            run_inprocess(runner, &mut states, store, &specs_by_id, &mut report)?;
            continue; // loop top sees everything done/failed
        }
        if !workers.is_empty() {
            spawn_strikes = 0;
        }

        // Hand pending shards to idle workers.
        let now = Instant::now();
        let idle_uids: Vec<u64> = workers
            .iter()
            .filter(|(_, w)| matches!(w.state, WorkerState::Idle))
            .map(|(uid, _)| *uid)
            .collect();
        for uid in idle_uids {
            // Pop the first ripe queue entry.
            let ripe = queue.iter().position(|&(ix, not_before)| {
                not_before <= now && !states[ix].done && !states[ix].failed
            });
            let Some(pos) = ripe else { break };
            // The idle snapshot can go stale if this worker was recycled
            // earlier in the pass; skip it and re-deal next iteration.
            let Some(w) = workers.get_mut(&uid) else {
                continue;
            };
            let Some((shard_ix, _)) = queue.remove(pos) else {
                break;
            };
            let st = &mut states[shard_ix];
            // Only cells not yet durable — after a mid-shard death the
            // retry runs just the remainder.
            let todo: Vec<CellSpec> = st
                .shard
                .cells
                .iter()
                .filter(|c| st.remaining.contains(&c.id()))
                .cloned()
                .collect();
            if todo.is_empty() {
                st.done = true;
                continue;
            }
            st.attempts += 1;
            let msg = ToWorker::Assign {
                shard_id: st.shard.id.clone(),
                shard_index: st.shard.index,
                attempt: st.attempts,
                cells: todo,
            };
            if w.stdin.write_all(msg.to_line().as_bytes()).is_err() {
                // Pipe already broken — treat as a death; the reader
                // thread's Gone event will requeue via the normal path.
                st.attempts -= 1;
                queue.push_front((shard_ix, now));
                continue;
            }
            let _ = w.stdin.flush();
            w.state = WorkerState::Busy {
                shard_ix,
                started: now,
            };
            w.last_seen = now;
        }

        // Wait for traffic.
        let event = rx.recv_timeout(Duration::from_millis(50));
        match event {
            Ok((uid, Event::Msg(msg))) => {
                let Some(w) = workers.get_mut(&uid) else {
                    continue; // message from an already-recycled worker
                };
                w.last_seen = Instant::now();
                match msg {
                    FromWorker::Ready { pid: _ } => {
                        if matches!(w.state, WorkerState::Starting) {
                            w.state = WorkerState::Idle;
                        }
                    }
                    FromWorker::Heartbeat { .. } => {}
                    FromWorker::CellDone {
                        cell_id,
                        wall_ms,
                        accesses,
                        payload,
                        shard_id,
                    } => {
                        let Some(spec) = specs_by_id.get(&cell_id) else {
                            eprintln!(
                                "# fleet: ignoring unknown cell {cell_id} from shard {shard_id}"
                            );
                            continue;
                        };
                        store.write_cell(
                            spec,
                            &payload,
                            &crate::store::JournalEntry {
                                cell_id: cell_id.clone(),
                                shard_id: shard_id.clone(),
                                wall_ms,
                                accesses,
                            },
                        )?;
                        report.cells_completed += 1;
                        report.sim_accesses += accesses;
                        if let WorkerState::Busy { shard_ix, .. } = w.state {
                            states[shard_ix].remaining.remove(&cell_id);
                        }
                    }
                    FromWorker::CellError {
                        cell_id, message, ..
                    } => {
                        eprintln!("# fleet: cell {cell_id} failed on worker: {message}");
                        if let WorkerState::Busy { shard_ix, .. } = w.state {
                            states[shard_ix].last_error = format!("cell {cell_id}: {message}");
                        }
                    }
                    FromWorker::ShardDone { .. } => {
                        if let WorkerState::Busy { shard_ix, started } = w.state {
                            w.state = WorkerState::Idle;
                            let n_shards = states.len();
                            let st = &mut states[shard_ix];
                            if st.remaining.is_empty() {
                                st.done = true;
                                eprintln!(
                                    "# fleet: shard {}/{} ({}) done · {} cells · {:.1}s",
                                    st.shard.index + 1,
                                    n_shards,
                                    &st.shard.id[..8],
                                    st.shard.cells.len(),
                                    started.elapsed().as_secs_f64(),
                                );
                            } else {
                                let reason = if st.last_error.is_empty() {
                                    "cells missing after shard_done".to_string()
                                } else {
                                    st.last_error.clone()
                                };
                                fail_attempt(
                                    &mut states,
                                    &mut queue,
                                    &mut report,
                                    shard_ix,
                                    &reason,
                                );
                            }
                        }
                    }
                }
            }
            Ok((uid, Event::Gone(reason))) => {
                let Some(mut w) = workers.remove(&uid) else {
                    continue; // already recycled by a timeout kill
                };
                let _ = w.child.kill();
                let _ = w.child.wait();
                report.worker_deaths += 1;
                if let WorkerState::Busy { shard_ix, .. } = w.state {
                    fail_attempt(&mut states, &mut queue, &mut report, shard_ix, &reason);
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }

        // Enforce stall and shard timeouts.
        let now = Instant::now();
        let timed_out: Vec<(u64, usize, String)> = workers
            .iter()
            .filter_map(|(uid, w)| match w.state {
                WorkerState::Busy { shard_ix, started } => {
                    if now.duration_since(w.last_seen) > cfg.stall_timeout {
                        Some((*uid, shard_ix, "worker stalled (no heartbeat)".to_string()))
                    } else if now.duration_since(started) > SHARD_TIMEOUT {
                        Some((*uid, shard_ix, "shard timeout".to_string()))
                    } else {
                        None
                    }
                }
                WorkerState::Starting => {
                    if now.duration_since(w.last_seen) > SHARD_TIMEOUT {
                        Some((*uid, usize::MAX, "worker never became ready".to_string()))
                    } else {
                        None
                    }
                }
                WorkerState::Idle => None,
            })
            .collect();
        for (uid, shard_ix, reason) in timed_out {
            if let Some(mut w) = workers.remove(&uid) {
                let _ = w.child.kill();
                let _ = w.child.wait();
                report.worker_deaths += 1;
                if shard_ix != usize::MAX {
                    fail_attempt(&mut states, &mut queue, &mut report, shard_ix, &reason);
                }
            }
        }

        // Periodic status summary.
        if last_status.elapsed() >= STATUS_EVERY {
            last_status = Instant::now();
            let done_cells = report.cells_prior + report.cells_completed;
            let busy = workers
                .iter()
                .filter(|(_, w)| matches!(w.state, WorkerState::Busy { .. }))
                .count();
            let shards_done = states.iter().filter(|s| s.done).count();
            let rate = report.sim_accesses as f64 / t0.elapsed().as_secs_f64().max(1e-9);
            eprintln!(
                "# fleet: {done_cells}/{} cells · {shards_done}/{} shards · {busy}/{} workers busy · {} retries · {} acc/s",
                report.cells_total,
                states.len(),
                workers.len(),
                report.retries,
                fmt_si(rate),
            );
        }
    }

    // Drain: ask live workers to exit, then reap (kill stragglers).
    for (_, w) in workers.iter_mut() {
        let _ = w.stdin.write_all(ToWorker::Exit.to_line().as_bytes());
        let _ = w.stdin.flush();
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    for (_, mut w) in std::mem::take(&mut workers) {
        loop {
            match w.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20))
                }
                _ => {
                    let _ = w.child.kill();
                    let _ = w.child.wait();
                    break;
                }
            }
        }
    }

    // Collect permanent failures per cell.
    for st in &states {
        if st.failed {
            for id in &st.remaining {
                report.failed_cells.push((
                    id.clone(),
                    if st.last_error.is_empty() {
                        "shard failed".to_string()
                    } else {
                        st.last_error.clone()
                    },
                ));
            }
        }
    }
    report.wall_seconds = t0.elapsed().as_secs_f64();
    eprintln!("{}", report.summary_line());
    if !report.failed_cells.is_empty() {
        for (id, why) in &report.failed_cells {
            if let Some(spec) = specs_by_id.get(id) {
                eprintln!("# fleet: FAILED cell {} ({}): {why}", id, spec.canonical());
            } else {
                eprintln!("# fleet: FAILED cell {id}: {why}");
            }
        }
    }
    Ok(report)
}

/// Executes every remaining cell through `runner` in this process — the
/// degradation path for total worker-spawn failure. Cell panics are
/// caught (a broken model costs its cell, not the orchestrator) and
/// results go through the same durable store writes as fleet cells.
fn run_inprocess(
    runner: &dyn CellRunner,
    states: &mut [ShardState],
    store: &ResultsStore,
    specs_by_id: &BTreeMap<String, CellSpec>,
    report: &mut FleetReport,
) -> Result<(), StoreError> {
    for st in states.iter_mut().filter(|s| !s.done && !s.failed) {
        st.attempts += 1;
        let ids: Vec<String> = st.remaining.iter().cloned().collect();
        for id in ids {
            let Some(spec) = specs_by_id.get(&id) else {
                continue;
            };
            let started = Instant::now();
            let outcome =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| runner.run_cell(spec)));
            match outcome {
                Ok(Ok((payload, accesses))) => {
                    store.write_cell(
                        spec,
                        &payload,
                        &JournalEntry {
                            cell_id: id.clone(),
                            shard_id: st.shard.id.clone(),
                            wall_ms: started.elapsed().as_millis() as u64,
                            accesses,
                        },
                    )?;
                    st.remaining.remove(&id);
                    report.cells_completed += 1;
                    report.sim_accesses += accesses;
                }
                Ok(Err(message)) => {
                    eprintln!("# fleet: in-process cell {id} failed: {message}");
                    st.last_error = format!("cell {id}: {message}");
                }
                Err(panic) => {
                    let message = crate::worker::panic_message(panic);
                    eprintln!("# fleet: in-process cell {id} panicked: {message}");
                    st.last_error = format!("cell {id} panicked: {message}");
                }
            }
        }
        if st.remaining.is_empty() {
            st.done = true;
        } else {
            st.failed = true;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_summary_counts() {
        let r = FleetReport {
            cells_total: 10,
            cells_prior: 4,
            cells_completed: 5,
            failed_cells: vec![("x".to_string(), "why".to_string())],
            retries: 2,
            worker_deaths: 1,
            sim_accesses: 1_000,
            wall_seconds: 1.0,
            ..FleetReport::default()
        };
        let line = r.summary_line();
        assert!(line.contains("9/10 cells"));
        assert!(line.contains("4 resumed"));
        assert!(line.contains("1 failed"));
        assert!(!r.complete());
    }

    #[test]
    fn si_formatting() {
        assert_eq!(fmt_si(950.0), "950");
        assert_eq!(fmt_si(412_000.0), "412k");
        assert_eq!(fmt_si(1_300_000.0), "1.3M");
        assert_eq!(fmt_si(2_500_000_000.0), "2.5G");
    }
}
