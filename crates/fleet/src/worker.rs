//! Worker-side protocol loop.
//!
//! A worker process (`repro worker`) reads [`ToWorker`] messages from
//! stdin, runs each assigned shard cell by cell through a [`CellRunner`],
//! and streams [`FromWorker`] messages to stdout: heartbeats while
//! computing, one `cell_done` per finished cell (so the orchestrator can
//! persist results as they land — a worker death mid-shard loses only the
//! unfinished cells), and `shard_done` when idle again. Diagnostics go to
//! stderr, which the orchestrator passes through.
//!
//! Cell execution is wrapped in `catch_unwind`: a model panic inside one
//! cell becomes a `cell_error` for that cell, not the death of the worker
//! and the rest of its shard.
//!
//! ## Fault injection
//!
//! The worker consults the [`crate::chaos`] engine (armed via
//! `FLEET_CHAOS=<seed>:<profile>`) at each protocol state:
//! on `assign` it may die, hang silently, or arm a death after one cell
//! (keyed by shard + attempt, so a retry rolls a fresh decision); per
//! cell it may sleep, panic inside the cell (exercising `catch_unwind`),
//! flip a byte of the outgoing `cell_done` line (exercising the payload
//! checksum), or die mid-write of it (exercising mid-shard recovery).

// Heartbeat timing needs wall clock and the reader uses detached threads;
// allowlisted here and in simlint's path allowlist.
#![allow(clippy::disallowed_methods)]

use std::io::{BufRead as _, Write as _};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use simkit::json::Value;

use crate::cell::CellSpec;
use crate::chaos::{ChaosEngine, Site, TargetedMode};
use crate::protocol::{FromWorker, ToWorker};

/// Executes one cell; implemented by the harness.
pub trait CellRunner {
    /// Runs `cell`, returning the opaque result payload plus the number
    /// of LLC demand accesses it simulated (aggregate-throughput
    /// accounting). `Err` marks the cell failed without killing the
    /// worker.
    fn run_cell(&self, cell: &CellSpec) -> Result<(Value, u64), String>;
}

/// Renders a caught panic payload into a one-line message.
pub(crate) fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn send_raw(out: &Mutex<std::io::Stdout>, bytes: &[u8]) {
    // simlint: allow(panic-policy) -- lock poisoning means a writer thread already panicked; this worker is lost either way
    let mut out = out.lock().expect("worker stdout");
    // A dead orchestrator pipe is not an error worth a worker backtrace.
    let _ = out.write_all(bytes);
    let _ = out.flush();
}

fn send(out: &Mutex<std::io::Stdout>, msg: &FromWorker) {
    send_raw(out, msg.to_line().as_bytes());
}

/// Runs the worker loop until `exit` or stdin EOF. Returns the number of
/// cells computed (mainly for tests; the process usually just exits).
pub fn serve(runner: &dyn CellRunner) -> usize {
    let chaos = ChaosEngine::from_env();
    // A zero period would spin the heartbeat thread on the stdout lock.
    let heartbeat_every = Duration::from_millis(crate::env_knob("FLEET_HEARTBEAT_MS", 100, 1));
    let out = Arc::new(Mutex::new(std::io::stdout()));
    let stdin = std::io::stdin();
    send(
        &out,
        &FromWorker::Ready {
            pid: std::process::id(),
        },
    );

    let mut cells_done = 0usize;
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let msg = match ToWorker::from_line(&line) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("# worker {}: bad message: {e}", std::process::id());
                continue;
            }
        };
        match msg {
            ToWorker::Exit => break,
            ToWorker::Assign {
                shard_id,
                shard_index,
                attempt,
                cells,
            } => {
                let mut fail_after: Option<usize> = None;
                if let Some(ch) = &chaos {
                    // Targeted single-shard faults (the regression-test
                    // form).
                    match ch.targeted_mode(&shard_id, shard_index) {
                        Some(TargetedMode::Panic) => {
                            eprintln!("# worker: fault injection: panic on shard {shard_index}");
                            std::process::exit(101);
                        }
                        Some(TargetedMode::Hang) => {
                            eprintln!("# worker: fault injection: hang on shard {shard_index}");
                            hang_forever();
                        }
                        Some(TargetedMode::PanicAfterOneCell) => fail_after = Some(1),
                        None => {}
                    }
                    // Seeded profile faults, keyed by (shard, attempt) so
                    // a retry of the same shard rolls a fresh decision.
                    let key = format!("{shard_id}#{attempt}");
                    if ch.fires(Site::WorkerKill, &key) {
                        eprintln!("# worker: chaos: killed on assign of shard {shard_index}");
                        std::process::exit(101);
                    }
                    if ch.fires(Site::WorkerHang, &key) {
                        eprintln!("# worker: chaos: hanging on shard {shard_index}");
                        hang_forever();
                    }
                    if fail_after.is_none() && ch.fires(Site::WorkerDieAfterCell, &key) {
                        fail_after = Some(1);
                    }
                }
                cells_done += run_shard(
                    runner,
                    &out,
                    &shard_id,
                    attempt,
                    &cells,
                    heartbeat_every,
                    fail_after,
                    chaos.as_ref(),
                );
                send(
                    &out,
                    &FromWorker::ShardDone {
                        shard_id: shard_id.clone(),
                    },
                );
            }
        }
    }
    cells_done
}

/// Stall silently — no heartbeats — until the orchestrator's stall
/// timeout kills us.
fn hang_forever() -> ! {
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

/// Runs one shard's cells, heartbeating from a side thread while each
/// cell computes. Returns how many cells completed.
#[allow(clippy::too_many_arguments)]
fn run_shard(
    runner: &dyn CellRunner,
    out: &Arc<Mutex<std::io::Stdout>>,
    shard_id: &str,
    attempt: usize,
    cells: &[CellSpec],
    heartbeat_every: Duration,
    fail_after: Option<usize>,
    chaos: Option<&ChaosEngine>,
) -> usize {
    let stop = Arc::new(AtomicBool::new(false));
    let beat = {
        let stop = Arc::clone(&stop);
        let out = Arc::clone(out);
        let shard_id = shard_id.to_string();
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                send(
                    &out,
                    &FromWorker::Heartbeat {
                        shard_id: shard_id.clone(),
                    },
                );
                std::thread::sleep(heartbeat_every);
            }
        })
    };

    let mut done = 0usize;
    for cell in cells {
        let cell_key = format!("{}#{attempt}", cell.id());
        if let Some(ch) = chaos {
            if ch.fires(Site::WorkerSlow, &cell_key) {
                std::thread::sleep(Duration::from_millis(ch.slow_ms()));
            }
        }
        let started = Instant::now();
        // A model panic must cost one cell, not the worker and the rest
        // of its shard: catch it and report a cell_error instead.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if let Some(ch) = chaos {
                if ch.fires(Site::CellPanic, &cell_key) {
                    // simlint: allow(panic-policy) -- chaos-injected model panic, caught by the catch_unwind wrapping this closure
                    panic!("chaos: injected cell panic");
                }
            }
            runner.run_cell(cell)
        }));
        match outcome {
            Ok(Ok((payload, accesses))) => {
                let msg = FromWorker::CellDone {
                    shard_id: shard_id.to_string(),
                    cell_id: cell.id(),
                    wall_ms: started.elapsed().as_millis() as u64,
                    accesses,
                    payload,
                };
                let line = msg.to_line();
                if let Some(ch) = chaos {
                    if ch.fires(Site::TruncateMessage, &cell_key) {
                        // Die mid-write: the orchestrator's reader sees a
                        // torn line (or EOF) and recycles this worker.
                        let cut = ch.truncate_at(&cell_key, line.len());
                        send_raw(out, &line.as_bytes()[..cut]);
                        eprintln!("# worker: chaos: died mid-write of cell_done");
                        std::process::exit(101);
                    }
                    if ch.fires(Site::CorruptMessage, &cell_key) {
                        let mut bad = ch.corrupt_line(&cell_key, line.trim_end());
                        bad.push('\n');
                        send_raw(out, bad.as_bytes());
                        done += 1;
                        continue;
                    }
                }
                send_raw(out, line.as_bytes());
                done += 1;
            }
            Ok(Err(message)) => {
                send(
                    out,
                    &FromWorker::CellError {
                        shard_id: shard_id.to_string(),
                        cell_id: cell.id(),
                        message,
                    },
                );
            }
            Err(panic) => {
                send(
                    out,
                    &FromWorker::CellError {
                        shard_id: shard_id.to_string(),
                        cell_id: cell.id(),
                        message: format!("cell panicked: {}", panic_message(panic)),
                    },
                );
            }
        }
        if fail_after.is_some_and(|n| done >= n) {
            eprintln!("# worker: fault injection: panic after {done} cell(s)");
            std::process::exit(101);
        }
    }
    stop.store(true, Ordering::Relaxed);
    let _ = beat.join();
    done
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panic_messages_render_str_and_string_payloads() {
        let caught = std::panic::catch_unwind(|| panic!("literal message")).expect_err("panics");
        assert_eq!(panic_message(caught), "literal message");
        let caught = std::panic::catch_unwind(|| {
            let detail = 42;
            panic!("formatted {detail}")
        })
        .expect_err("panics");
        assert_eq!(panic_message(caught), "formatted 42");
    }
}
