//! The line-delimited JSON worker protocol.
//!
//! The orchestrator spawns worker processes (`repro worker`) and speaks
//! NDJSON over their stdin/stdout: one JSON object per line, each carrying
//! a `"type"` tag. Worker stderr passes through untouched for diagnostics.
//!
//! Orchestrator → worker:
//!
//! | type     | fields                                              | meaning          |
//! |----------|-----------------------------------------------------|------------------|
//! | `assign` | `shard_id`, `shard_index`, `attempt`, `cells: [...]`| run this shard   |
//! | `exit`   |                                                     | drain and quit   |
//!
//! Worker → orchestrator:
//!
//! | type         | fields                                        | meaning                    |
//! |--------------|-----------------------------------------------|----------------------------|
//! | `ready`      | `pid`                                         | idle, send work            |
//! | `heartbeat`  | `shard_id`                                    | still computing            |
//! | `cell_done`  | `shard_id`, `cell_id`, `accesses`, `payload`, `sum` | one finished cell |
//! | `cell_error` | `shard_id`, `cell_id`, `message`              | cell failed (not retried on this worker) |
//! | `shard_done` | `shard_id`                                    | shard finished, idle again |
//!
//! `attempt` is the shard's 1-based attempt counter: retries of the same
//! shard carry a different attempt, which keys fault-injection schedules
//! (see [`crate::chaos`]) and diagnostics. `sum` is the FNV-1a content
//! checksum of the payload's canonical render ([`content_sum`]); it is
//! verified at parse time, so a flipped byte that still reads as valid
//! JSON is caught here instead of being persisted.
//!
//! Unknown message types are a protocol error — the orchestrator treats
//! the worker as corrupt and recycles it — so the protocol can grow
//! without old orchestrators silently dropping new messages.

use simkit::json::{self, Value};

use crate::cell::{content_sum, CellSpec};

/// Messages the orchestrator sends to a worker.
#[derive(Debug, Clone)]
pub enum ToWorker {
    /// Run this shard.
    Assign {
        /// Content-hashed shard ID.
        shard_id: String,
        /// Shard ordinal in the plan (fault-injection targets may use it).
        shard_index: usize,
        /// 1-based attempt counter for this shard (retries increment it),
        /// so per-attempt fault schedules can fire once and be absorbed.
        attempt: usize,
        /// Member cells.
        cells: Vec<CellSpec>,
    },
    /// Finish up and exit cleanly.
    Exit,
}

impl ToWorker {
    /// One NDJSON line (newline included).
    pub fn to_line(&self) -> String {
        let v = match self {
            ToWorker::Assign {
                shard_id,
                shard_index,
                attempt,
                cells,
            } => json::obj(vec![
                ("type", json::str("assign")),
                ("shard_id", json::str(shard_id)),
                ("shard_index", json::num_u64(*shard_index as u64)),
                ("attempt", json::num_u64(*attempt as u64)),
                (
                    "cells",
                    Value::Arr(cells.iter().map(|c| c.to_value()).collect()),
                ),
            ]),
            ToWorker::Exit => json::obj(vec![("type", json::str("exit"))]),
        };
        let mut line = v.render();
        line.push('\n');
        line
    }

    /// Parses one line.
    pub fn from_line(line: &str) -> Result<ToWorker, String> {
        let v = json::parse(line.trim()).map_err(|e| e.to_string())?;
        let kind: &str = v.req("type")?;
        match kind {
            "assign" => Ok(ToWorker::Assign {
                shard_id: v.req("shard_id")?,
                shard_index: v.req("shard_index")?,
                attempt: v.req("attempt")?,
                cells: v
                    .req::<&[Value]>("cells")?
                    .iter()
                    .map(CellSpec::from_value)
                    .collect::<Result<Vec<_>, _>>()?,
            }),
            "exit" => Ok(ToWorker::Exit),
            other => Err(format!("unknown orchestrator message '{other}'")),
        }
    }
}

/// Messages a worker sends to the orchestrator.
#[derive(Debug, Clone)]
pub enum FromWorker {
    /// The worker is idle and wants a shard.
    Ready {
        /// Worker process ID (for the status display).
        pid: u32,
    },
    /// Liveness signal while a shard computes.
    Heartbeat {
        /// The shard being computed.
        shard_id: String,
    },
    /// One cell of the current shard finished.
    CellDone {
        /// The shard being computed.
        shard_id: String,
        /// Content-hashed cell ID.
        cell_id: String,
        /// LLC demand accesses the cell simulated (aggregate-throughput
        /// accounting).
        accesses: u64,
        /// The harness result payload (opaque to the fleet layer).
        payload: Value,
    },
    /// One cell failed on the worker (bad spec, harness panic caught at
    /// the cell boundary).
    CellError {
        /// The shard being computed.
        shard_id: String,
        /// Content-hashed cell ID.
        cell_id: String,
        /// Human-readable failure description.
        message: String,
    },
    /// The current shard is complete; the worker is idle again.
    ShardDone {
        /// The finished shard.
        shard_id: String,
    },
}

impl FromWorker {
    /// One NDJSON line (newline included).
    pub fn to_line(&self) -> String {
        let v = match self {
            FromWorker::Ready { pid } => json::obj(vec![
                ("type", json::str("ready")),
                ("pid", json::num_u64(*pid as u64)),
            ]),
            FromWorker::Heartbeat { shard_id } => json::obj(vec![
                ("type", json::str("heartbeat")),
                ("shard_id", json::str(shard_id)),
            ]),
            FromWorker::CellDone {
                shard_id,
                cell_id,
                accesses,
                payload,
            } => json::obj(vec![
                ("type", json::str("cell_done")),
                ("shard_id", json::str(shard_id)),
                ("cell_id", json::str(cell_id)),
                ("accesses", json::num_u64(*accesses)),
                ("payload", payload.clone()),
                ("sum", json::str(content_sum(payload))),
            ]),
            FromWorker::CellError {
                shard_id,
                cell_id,
                message,
            } => json::obj(vec![
                ("type", json::str("cell_error")),
                ("shard_id", json::str(shard_id)),
                ("cell_id", json::str(cell_id)),
                ("message", json::str(message)),
            ]),
            FromWorker::ShardDone { shard_id } => json::obj(vec![
                ("type", json::str("shard_done")),
                ("shard_id", json::str(shard_id)),
            ]),
        };
        let mut line = v.render();
        line.push('\n');
        line
    }

    /// Parses one line.
    pub fn from_line(line: &str) -> Result<FromWorker, String> {
        let v = json::parse(line.trim()).map_err(|e| e.to_string())?;
        let kind: &str = v.req("type")?;
        match kind {
            "ready" => Ok(FromWorker::Ready { pid: v.req("pid")? }),
            "heartbeat" => Ok(FromWorker::Heartbeat {
                shard_id: v.req("shard_id")?,
            }),
            "cell_done" => {
                let payload: &Value = v.req("payload")?;
                let sum: &str = v.req("sum")?;
                if sum != content_sum(payload) {
                    // A byte flip somewhere on the pipe that still parsed
                    // as JSON; the worker (or its transport) is corrupt.
                    return Err(format!(
                        "cell_done payload checksum mismatch (claimed {sum})"
                    ));
                }
                Ok(FromWorker::CellDone {
                    shard_id: v.req("shard_id")?,
                    cell_id: v.req("cell_id")?,
                    accesses: v.req("accesses")?,
                    payload: payload.clone(),
                })
            }
            "cell_error" => Ok(FromWorker::CellError {
                shard_id: v.req("shard_id")?,
                cell_id: v.req("cell_id")?,
                message: v
                    .req("message")
                    .unwrap_or_else(|_| "unspecified".to_string()),
            }),
            "shard_done" => Ok(FromWorker::ShardDone {
                shard_id: v.req("shard_id")?,
            }),
            other => Err(format!("unknown worker message '{other}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assign_roundtrips_with_cells() {
        let msg = ToWorker::Assign {
            shard_id: "abcd".to_string(),
            shard_index: 3,
            attempt: 2,
            cells: vec![CellSpec::sweep("G2-1", "ucp", 2, "quick")],
        };
        let line = msg.to_line();
        assert!(line.ends_with('\n'));
        match ToWorker::from_line(&line).expect("parses") {
            ToWorker::Assign {
                shard_id,
                shard_index,
                attempt,
                cells,
            } => {
                assert_eq!(shard_id, "abcd");
                assert_eq!(shard_index, 3);
                assert_eq!(attempt, 2);
                assert_eq!(cells.len(), 1);
                assert_eq!(cells[0].workload, "G2-1");
            }
            other => panic!("wrong message: {other:?}"),
        }
        // Workers are always the orchestrator's own executable, so an
        // assign without an attempt is malformed, not an older peer.
        let no_attempt = r#"{"type":"assign","shard_id":"s","shard_index":0,"cells":[]}"#;
        let err = ToWorker::from_line(no_attempt).expect_err("attempt is required");
        assert!(err.contains("attempt"), "{err}");
        assert!(matches!(
            ToWorker::from_line(&ToWorker::Exit.to_line()),
            Ok(ToWorker::Exit)
        ));
    }

    #[test]
    fn worker_messages_roundtrip() {
        let msgs = vec![
            FromWorker::Ready { pid: 42 },
            FromWorker::Heartbeat {
                shard_id: "s".to_string(),
            },
            FromWorker::CellDone {
                shard_id: "s".to_string(),
                cell_id: "c".to_string(),
                accesses: 99_000,
                payload: json::obj(vec![("ipc", json::arr_f64(&[1.5, 0.25]))]),
            },
            FromWorker::CellError {
                shard_id: "s".to_string(),
                cell_id: "c".to_string(),
                message: "boom".to_string(),
            },
            FromWorker::ShardDone {
                shard_id: "s".to_string(),
            },
        ];
        for m in msgs {
            let line = m.to_line();
            let back = FromWorker::from_line(&line).expect(&line);
            assert_eq!(back.to_line(), line);
        }
    }

    #[test]
    fn unknown_types_are_protocol_errors() {
        assert!(ToWorker::from_line(r#"{"type":"mystery"}"#).is_err());
        assert!(FromWorker::from_line(r#"{"type":"mystery"}"#).is_err());
        assert!(FromWorker::from_line("not json").is_err());
        assert!(FromWorker::from_line(r#"{"no":"type"}"#).is_err());
        // A pid outside u32 is rejected, not truncated.
        assert!(FromWorker::from_line(r#"{"type":"ready","pid":4294967296}"#).is_err());
    }

    #[test]
    fn corrupted_cell_done_payloads_fail_the_checksum() {
        let msg = FromWorker::CellDone {
            shard_id: "s".to_string(),
            cell_id: "c".to_string(),
            accesses: 1000,
            payload: json::obj(vec![("ipc", json::arr_f64(&[1.5, 0.25]))]),
        };
        let line = msg.to_line();
        assert!(FromWorker::from_line(&line).is_ok());
        // Flip one digit inside the payload: still valid JSON, but the
        // checksum no longer matches.
        let flipped = line.replace("0.25", "0.35");
        assert_ne!(flipped, line);
        let err = FromWorker::from_line(&flipped).expect_err("checksum must catch the flip");
        assert!(err.contains("checksum"), "{err}");
        // A cell_done without any checksum is equally rejected.
        let stripped = line.replace(r#","sum":""#, r#","nosum":""#);
        assert!(FromWorker::from_line(&stripped).is_err());
    }
}
