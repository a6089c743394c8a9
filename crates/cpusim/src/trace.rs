//! Instruction records, the trace-source abstraction, and the `.ctrace`
//! trace-file format.
//!
//! # The in-memory record
//!
//! An [`Instr`] is 16 bytes, 8-aligned: two `u64` words.
//!
//! | word | bits | field |
//! |---|---|---|
//! | `addr` | 0..64 | referenced byte address (0 unless Load/Store; below 2^48) |
//! | `word` | 0..48 | program counter |
//! | `word` | 48..50 | kind tag: 0 = Alu, 1 = Load, 2 = Store, 3 = Branch |
//! | `word` | 50 | branch taken (Branch only) |
//! | `word` | 51 | `dep_prev_load` (Load only) |
//! | `word` | 52..64 | always 0 |
//!
//! The fields are private and read through accessors named after them
//! ([`Instr::kind`], [`Instr::pc`], [`Instr::addr`], [`Instr::taken`],
//! [`Instr::dep_prev_load`]). Records are canonical by construction: the
//! only constructors are [`Instr::alu`], [`Instr::load`] (with
//! [`Instr::with_dep_prev_load`] for a dependent load), [`Instr::store`] and
//! [`Instr::branch`], so a field the kind cannot express always reads 0 or
//! false, and two records are equal exactly when their fields are.
//!
//! Every constructor panics on a `pc` or `addr` at or above
//! [`TRACE_ADDR_LIMIT`] (2^48), naming the field, so the bound holds for
//! every source, not only for parsed traces. The core fetches instruction
//! lines at `pc | 1 << 48`, and the shared cache tags line addresses with
//! the core id in their top byte, so a larger value would alias
//! instruction and data lines, or reach another core's lines; the packed
//! word could not hold it either.
//!
//! # Recorded streams: the packed store
//!
//! A stream kept in memory is not a slice of `Instr`s. It is a
//! [`PackedTrace`]: an append-only store that holds each instruction in
//! one `u64`, half an [`Instr`]. It is filled one record at a time by
//! [`PackedTrace::push`] and replayed by [`TraceSource`]. Each word stores
//! the pc and the address as deltas:
//!
//! | bits | field |
//! |---|---|
//! | 0..2 | kind tag: 0 = Alu, 1 = Load, 2 = Store, 3 = Branch |
//! | 2 | flag: `taken` on a Branch, `dep_prev_load` on a Load, else 0 |
//! | 3..24 | pc − (previous pc + 4), signed 21 bits |
//! | 24..64 | addr − previous memory address, signed 40 bits (0 unless Load/Store) |
//!
//! "Previous" is the record before this one (the previous Load or Store
//! for the address); before the first record the pc + 4 and the address
//! both read 0, and a replay that rewinds starts again from there. A
//! sequential instruction's pc field is 0, and so is an Alu's or a
//! Branch's address field, so those records cost no address state.
//!
//! **Escapes.** A record whose pc or address delta does not fit its field
//! is stored whole in a side table of [`Instr`]s, and its word holds the
//! escape code — an Alu tag with the flag set, which no canonical record
//! uses — with the side-table index in bits 3..64. The record still moves
//! the delta state, so the words after it stay short. The 19 synthetic
//! models never escape (their code spans under 1 MiB and their regions sit
//! within 8 GiB); a real trace escapes when it jumps between code or data
//! segments that lie further apart.
//!
//! **Decoding** is a few shifts and adds with no data-dependent branch but
//! the escape test: an 8-entry table indexed by the low three bits gives
//! the address mask (0 for non-memory kinds) and the kind and flag bits of
//! the [`Instr`] word. The core branches on the kind anyway.
//!
//! **Why fixed width.** Two smaller layouts were measured on perfbench's
//! `stream8` (eight replayed streams) and rejected. A 4-byte slot-delta
//! record cut its peak RSS to 10.9 MiB but cost 2–8% `wall_s` and 18–26%
//! `setup_s`; a byte-granular varint reached 8.5 MiB but cost 15% `wall_s`
//! and 30% `setup_s`. One word per record takes it from 22.4 MiB (16-byte
//! `Instr`s) to 15.3 MiB for about 5% more `setup_s` (packing costs 3–5 ns
//! per record) and 9% more `wall_s` (unpacking adds about 2 ns to each
//! replayed instruction), medians of 12 alternating pairs on a 2-CPU
//! x86_64 host.
//!
//! # The `.ctrace` trace-file format
//!
//! Real-trace workloads (ChampSim-style: one record per retired
//! instruction) are stored in either of two interchangeable encodings,
//! distinguished by the file's leading bytes:
//!
//! **Binary** — the file starts with the 5-byte magic [`TRACE_MAGIC`]
//! (`"CTRC"` + format version `0x01`) followed by fixed 18-byte records,
//! all fields little-endian:
//!
//! | offset | size | field |
//! |---|---|---|
//! | 0 | 1 | kind tag: 0 = Alu, 1 = Load, 2 = Store, 3 = Branch |
//! | 1 | 1 | flags: bit 0 = branch taken (Branch only), bit 1 = `dep_prev_load` (Load only); any other set bit is an error |
//! | 2 | 8 | program counter (u64 LE; below 2^48) |
//! | 10 | 8 | referenced byte address (u64 LE; below 2^48; must be 0 for Alu/Branch) |
//!
//! **Text** — any file *not* starting with the magic; UTF-8 lines, one
//! record each (blank lines and `#` comments skipped), numbers decimal or
//! `0x`-prefixed hex:
//!
//! ```text
//! A  <pc>                 # ALU
//! L  <pc> <addr>          # load
//! LD <pc> <addr>          # load whose address depends on the previous load
//! S  <pc> <addr>          # store
//! B  <pc> <taken: 1|0|T|N>
//! ```
//!
//! In both encodings `pc` and `addr` must lie below [`TRACE_ADDR_LIMIT`]
//! (2^48), the same bound every [`Instr`] constructor enforces.
//!
//! Parsing is bounds-checked end to end: a truncated binary record, an
//! unknown kind tag, undefined flag bits, an out-of-range `pc` or `addr`
//! or a malformed text line yield a [`TraceError`] instead of panicking.
//! Both decoders emit records through one sink: [`parse_trace`] collects
//! them into a `Vec<Instr>`, and [`load_trace`] packs them straight into a
//! [`PackedTrace`]. [`TraceSource`] replays a packed trace as an *infinite*
//! [`InstrSource`] by rewinding to the first record on exhaustion, so
//! partitioning epochs never starve however short the file is.

use std::sync::Arc;

/// Dynamic instruction class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstrKind {
    /// Integer/FP computation — completes in one cycle, fully pipelined.
    Alu,
    /// Memory read.
    Load,
    /// Memory write (retires through the store buffer).
    Store,
    /// Conditional branch.
    Branch,
}

/// One dynamic instruction produced by a trace source.
///
/// A 16-byte value (see the module docs for the bit layout). Records are
/// canonical by construction: only the kind constructors build one, so a
/// field the kind cannot express (`addr` on an Alu or Branch, `taken` off
/// a Branch, `dep_prev_load` off a Load) always reads as zero or false.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Instr {
    /// Core-local byte address referenced (0 unless a load or store).
    addr: u64,
    /// Program counter in bits 0..48, kind tag in bits 48..50, `taken` in
    /// bit 50 and `dep_prev_load` in bit 51.
    word: u64,
}

const KIND_SHIFT: u32 = 48;
const TAKEN_BIT: u64 = 1 << 50;
const DEP_BIT: u64 = 1 << 51;

/// The constructors' failure path, kept out of line: names the first of
/// `pc` and `addr` that is not below [`TRACE_ADDR_LIMIT`].
#[cold]
#[inline(never)]
fn out_of_range(pc: u64, addr: u64) -> ! {
    let (field, value) = if pc >= TRACE_ADDR_LIMIT {
        ("pc", pc)
    } else {
        ("addr", addr)
    };
    panic!("Instr {field} {value:#x} is not below 2^48")
}

impl Instr {
    #[inline]
    fn new(kind: InstrKind, pc: u64, addr: u64) -> Instr {
        if (pc | addr) >= TRACE_ADDR_LIMIT {
            out_of_range(pc, addr);
        }
        Instr {
            addr,
            word: pc | (u64::from(kind.tag()) << KIND_SHIFT),
        }
    }

    /// A plain ALU instruction at `pc`.
    ///
    /// Panics if `pc` is not below [`TRACE_ADDR_LIMIT`].
    #[inline]
    pub fn alu(pc: u64) -> Instr {
        Instr::new(InstrKind::Alu, pc, 0)
    }

    /// A load of `addr` at `pc`.
    ///
    /// Panics if `pc` or `addr` is not below [`TRACE_ADDR_LIMIT`].
    #[inline]
    pub fn load(pc: u64, addr: u64) -> Instr {
        Instr::new(InstrKind::Load, pc, addr)
    }

    /// A store to `addr` at `pc`.
    ///
    /// Panics if `pc` or `addr` is not below [`TRACE_ADDR_LIMIT`].
    #[inline]
    pub fn store(pc: u64, addr: u64) -> Instr {
        Instr::new(InstrKind::Store, pc, addr)
    }

    /// A branch at `pc` with the given outcome.
    ///
    /// Panics if `pc` is not below [`TRACE_ADDR_LIMIT`].
    #[inline]
    pub fn branch(pc: u64, taken: bool) -> Instr {
        let mut i = Instr::new(InstrKind::Branch, pc, 0);
        i.word |= u64::from(taken) * TAKEN_BIT;
        i
    }

    /// This load, with its address marked as depending on the previous
    /// load exactly when `dep` is set (pointer chasing).
    ///
    /// Panics if `self` is not a load.
    #[inline]
    pub fn with_dep_prev_load(self, dep: bool) -> Instr {
        assert!(
            self.kind() == InstrKind::Load,
            "dep_prev_load applies to loads only"
        );
        Instr {
            addr: self.addr,
            word: (self.word & !DEP_BIT) | (u64::from(dep) * DEP_BIT),
        }
    }

    /// Instruction class.
    #[inline]
    pub fn kind(self) -> InstrKind {
        match (self.word >> KIND_SHIFT) & 0b11 {
            0 => InstrKind::Alu,
            1 => InstrKind::Load,
            2 => InstrKind::Store,
            _ => InstrKind::Branch,
        }
    }

    /// Program counter (drives the L1-I stream and branch prediction).
    #[inline]
    pub fn pc(self) -> u64 {
        self.word & (TRACE_ADDR_LIMIT - 1)
    }

    /// Core-local byte address referenced (0 unless a load or store).
    #[inline]
    pub fn addr(self) -> u64 {
        self.addr
    }

    /// Actual branch outcome (false unless a branch).
    #[inline]
    pub fn taken(self) -> bool {
        self.word & TAKEN_BIT != 0
    }

    /// This load's address depends on the previous load (pointer chasing);
    /// it cannot issue before that load completes. False unless a load.
    #[inline]
    pub fn dep_prev_load(self) -> bool {
        self.word & DEP_BIT != 0
    }
}

impl std::fmt::Debug for Instr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Instr")
            .field("kind", &self.kind())
            .field("addr", &self.addr())
            .field("pc", &self.pc())
            .field("taken", &self.taken())
            .field("dep_prev_load", &self.dep_prev_load())
            .finish()
    }
}

/// An endless stream of dynamic instructions.
///
/// Workload generators implement this; the core pulls one instruction per
/// dispatch slot. Sources must be infinite — the paper keeps every
/// application running until the slowest one reaches its instruction target,
/// so a source is never "done".
pub trait InstrSource {
    /// Produces the next dynamic instruction.
    fn next_instr(&mut self) -> Instr;
}

/// Blanket impl so closures can serve as sources in tests.
impl<F: FnMut() -> Instr> InstrSource for F {
    fn next_instr(&mut self) -> Instr {
        self()
    }
}

/// A boxed source is a source: the default stream type of
/// [`crate::Core`], which runs plug-in sources behind one virtual call per
/// instruction.
impl InstrSource for Box<dyn InstrSource + Send> {
    #[inline]
    fn next_instr(&mut self) -> Instr {
        (**self).next_instr()
    }
}

// ------------------------------------------------------------ trace files

/// Magic prefix of a binary `.ctrace` file: `"CTRC"` + format version 1.
pub const TRACE_MAGIC: [u8; 5] = *b"CTRC\x01";

/// Bytes per binary trace record (kind + flags + pc + addr).
pub const TRACE_RECORD_BYTES: usize = 18;

/// Exclusive upper bound on a trace record's `pc` and `addr` (2^48).
pub const TRACE_ADDR_LIMIT: u64 = 1 << 48;

/// Why a trace failed to load or parse (see the module docs for the
/// format specification).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The file could not be read.
    Io {
        /// Path that failed.
        path: String,
        /// OS error rendered as text.
        error: String,
    },
    /// The payload given to the binary decoder does not start with
    /// [`TRACE_MAGIC`].
    BadMagic,
    /// A `CTRC` binary header carries a format version this build does
    /// not read (only version 1).
    UnsupportedVersion {
        /// The version byte found (`None` when the payload ends at the
        /// 4-byte `CTRC` prefix).
        found: Option<u8>,
    },
    /// Binary payload length is not a whole number of records.
    Truncated {
        /// Index of the record that was cut short (0-based).
        record: usize,
    },
    /// A binary record carries an unknown kind tag.
    BadKind {
        /// Index of the offending record (0-based).
        record: usize,
        /// The tag found.
        tag: u8,
    },
    /// A binary record sets flag bits the format does not define.
    BadFlags {
        /// Index of the offending record (0-based).
        record: usize,
        /// The flags byte found.
        flags: u8,
    },
    /// A binary Alu/Branch record carries a nonzero address (the text
    /// encoding cannot express one, so it must be zero).
    BadAddr {
        /// Index of the offending record (0-based).
        record: usize,
        /// The address found.
        addr: u64,
    },
    /// A binary record's `pc` or `addr` is at or above
    /// [`TRACE_ADDR_LIMIT`].
    OutOfRange {
        /// Index of the offending record (0-based).
        record: usize,
        /// Which field: `"pc"` or `"addr"`.
        field: &'static str,
        /// The value found.
        value: u64,
    },
    /// A text line could not be parsed.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        reason: String,
    },
    /// The trace holds no records; it cannot feed an infinite source.
    Empty,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io { path, error } => write!(f, "cannot read trace '{path}': {error}"),
            TraceError::BadMagic => write!(f, "missing CTRC binary magic"),
            TraceError::UnsupportedVersion { found: Some(v) } => {
                write!(f, "unsupported CTRC trace version {v} (this build reads 1)")
            }
            TraceError::UnsupportedVersion { found: None } => {
                write!(f, "CTRC header cut short before the version byte")
            }
            TraceError::Truncated { record } => {
                write!(f, "truncated trace: record {record} is cut short")
            }
            TraceError::BadKind { record, tag } => {
                write!(f, "record {record}: unknown kind tag {tag} (expected 0-3)")
            }
            TraceError::BadFlags { record, flags } => {
                write!(f, "record {record}: undefined flag bits in {flags:#04x}")
            }
            TraceError::BadAddr { record, addr } => {
                write!(
                    f,
                    "record {record}: nonzero address {addr:#x} on an Alu/Branch record"
                )
            }
            TraceError::OutOfRange {
                record,
                field,
                value,
            } => write!(f, "record {record}: {field} {value:#x} is not below 2^48"),
            TraceError::BadLine { line, reason } => write!(f, "line {line}: {reason}"),
            TraceError::Empty => write!(f, "trace holds no records"),
        }
    }
}

impl std::error::Error for TraceError {}

impl InstrKind {
    fn tag(self) -> u8 {
        match self {
            InstrKind::Alu => 0,
            InstrKind::Load => 1,
            InstrKind::Store => 2,
            InstrKind::Branch => 3,
        }
    }

    fn from_tag(tag: u8) -> Option<InstrKind> {
        match tag {
            0 => Some(InstrKind::Alu),
            1 => Some(InstrKind::Load),
            2 => Some(InstrKind::Store),
            3 => Some(InstrKind::Branch),
            _ => None,
        }
    }
}

/// Encodes a record sequence in the binary `.ctrace` format.
///
/// Records are canonical by construction, so the output always satisfies
/// the reader's validation.
pub fn encode_trace(instrs: &[Instr]) -> Vec<u8> {
    let mut out = Vec::with_capacity(TRACE_MAGIC.len() + instrs.len() * TRACE_RECORD_BYTES);
    out.extend_from_slice(&TRACE_MAGIC);
    for i in instrs {
        out.push(i.kind().tag());
        out.push(u8::from(i.taken()) | (u8::from(i.dep_prev_load()) << 1));
        out.extend_from_slice(&i.pc().to_le_bytes());
        out.extend_from_slice(&i.addr().to_le_bytes());
    }
    out
}

/// Decodes a binary `.ctrace` payload (must start with [`TRACE_MAGIC`]).
pub fn decode_trace(bytes: &[u8]) -> Result<Vec<Instr>, TraceError> {
    let mut instrs = Vec::with_capacity(binary_records(bytes));
    decode_records(bytes, &mut |i| instrs.push(i))?;
    Ok(instrs)
}

/// Records in a binary payload's body, rounded down (0 for text).
fn binary_records(bytes: &[u8]) -> usize {
    bytes
        .strip_prefix(&TRACE_MAGIC[..])
        .map_or(0, |body| body.len() / TRACE_RECORD_BYTES)
}

/// The binary decoder: hands each validated record to `emit`, in order.
fn decode_records(bytes: &[u8], emit: &mut impl FnMut(Instr)) -> Result<(), TraceError> {
    let body = bytes
        .strip_prefix(&TRACE_MAGIC[..])
        .ok_or(TraceError::BadMagic)?;
    for (record, chunk) in body.chunks(TRACE_RECORD_BYTES).enumerate() {
        if chunk.len() != TRACE_RECORD_BYTES {
            return Err(TraceError::Truncated { record });
        }
        let kind = InstrKind::from_tag(chunk[0]).ok_or(TraceError::BadKind {
            record,
            tag: chunk[0],
        })?;
        let flags = chunk[1];
        // Each flag bit is valid only for the kind that can express it
        // (taken on branches, dep_prev_load on loads) — anything else
        // would be silently dropped by a text round trip, so reject it.
        let allowed = match kind {
            InstrKind::Branch => 0b01,
            InstrKind::Load => 0b10,
            InstrKind::Alu | InstrKind::Store => 0b00,
        };
        if flags & !allowed != 0 {
            return Err(TraceError::BadFlags { record, flags });
        }
        let word = |at: usize| u64::from_le_bytes(chunk[at..at + 8].try_into().expect("8 bytes"));
        let addr = word(10);
        // Same interchangeability rule for the address field: the text
        // encoding has no address slot for Alu/Branch, so a nonzero one
        // here could not survive a text round trip.
        if addr != 0 && matches!(kind, InstrKind::Alu | InstrKind::Branch) {
            return Err(TraceError::BadAddr { record, addr });
        }
        let pc = word(2);
        for (field, value) in [("pc", pc), ("addr", addr)] {
            if value >= TRACE_ADDR_LIMIT {
                return Err(TraceError::OutOfRange {
                    record,
                    field,
                    value,
                });
            }
        }
        emit(match kind {
            InstrKind::Alu => Instr::alu(pc),
            InstrKind::Load => Instr::load(pc, addr).with_dep_prev_load(flags & 0b10 != 0),
            InstrKind::Store => Instr::store(pc, addr),
            InstrKind::Branch => Instr::branch(pc, flags & 0b01 != 0),
        });
    }
    Ok(())
}

/// Renders a record sequence in the text trace format.
pub fn format_trace_text(instrs: &[Instr]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for i in instrs {
        let (pc, addr) = (i.pc(), i.addr());
        let _ = match i.kind() {
            InstrKind::Alu => writeln!(out, "A 0x{pc:x}"),
            InstrKind::Load if i.dep_prev_load() => writeln!(out, "LD 0x{pc:x} 0x{addr:x}"),
            InstrKind::Load => writeln!(out, "L 0x{pc:x} 0x{addr:x}"),
            InstrKind::Store => writeln!(out, "S 0x{pc:x} 0x{addr:x}"),
            InstrKind::Branch => writeln!(out, "B 0x{pc:x} {}", u8::from(i.taken())),
        };
    }
    out
}

/// Parses the text trace format (see the module docs for the grammar).
pub fn parse_trace_text(text: &str) -> Result<Vec<Instr>, TraceError> {
    let mut instrs = Vec::new();
    parse_text_records(text, &mut |i| instrs.push(i))?;
    Ok(instrs)
}

/// The text parser: hands each parsed record to `emit`, in order.
fn parse_text_records(text: &str, emit: &mut impl FnMut(Instr)) -> Result<(), TraceError> {
    let number = |tok: &str, line: usize| -> Result<u64, TraceError> {
        let parsed = match tok.strip_prefix("0x").or_else(|| tok.strip_prefix("0X")) {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => tok.parse::<u64>(),
        };
        parsed.map_err(|_| TraceError::BadLine {
            line,
            reason: format!("bad number '{tok}'"),
        })
    };
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let body = raw.split('#').next().unwrap_or("").trim();
        if body.is_empty() {
            continue;
        }
        let mut toks = body.split_whitespace();
        let kind = toks.next().expect("non-empty line").to_ascii_uppercase();
        let mut field = |what: &str| -> Result<u64, TraceError> {
            let tok = toks.next().ok_or_else(|| TraceError::BadLine {
                line,
                reason: format!("missing {what}"),
            })?;
            let value = number(tok, line)?;
            if value >= TRACE_ADDR_LIMIT {
                return Err(TraceError::BadLine {
                    line,
                    reason: format!("{what} {value:#x} is not below 2^48"),
                });
            }
            Ok(value)
        };
        let instr = match kind.as_str() {
            "A" => Instr::alu(field("pc")?),
            "L" | "LD" => {
                Instr::load(field("pc")?, field("addr")?).with_dep_prev_load(kind == "LD")
            }
            "S" => Instr::store(field("pc")?, field("addr")?),
            "B" => {
                let pc = field("pc")?;
                let tok = toks.next().ok_or_else(|| TraceError::BadLine {
                    line,
                    reason: "missing branch outcome".to_string(),
                })?;
                let taken = match tok.to_ascii_uppercase().as_str() {
                    "1" | "T" => true,
                    "0" | "N" => false,
                    other => {
                        return Err(TraceError::BadLine {
                            line,
                            reason: format!("bad branch outcome '{other}' (1|0|T|N)"),
                        })
                    }
                };
                Instr::branch(pc, taken)
            }
            other => {
                return Err(TraceError::BadLine {
                    line,
                    reason: format!("unknown record kind '{other}' (A|L|LD|S|B)"),
                })
            }
        };
        if let Some(extra) = toks.next() {
            return Err(TraceError::BadLine {
                line,
                reason: format!("trailing token '{extra}'"),
            });
        }
        emit(instr);
    }
    Ok(())
}

/// Reads a trace payload into `emit`, sniffing binary (magic prefix) vs
/// text, and returns how many records it emitted.
fn read_trace(bytes: &[u8], emit: &mut impl FnMut(Instr)) -> Result<usize, TraceError> {
    let mut records = 0;
    let mut counted = |i: Instr| {
        records += 1;
        emit(i);
    };
    if bytes.starts_with(&TRACE_MAGIC) {
        decode_records(bytes, &mut counted)?;
    } else if bytes.starts_with(b"CTRC") {
        // A binary header with a version this build does not read —
        // falling through to the text parser would produce a nonsense
        // "unknown record kind" error instead.
        return Err(TraceError::UnsupportedVersion {
            found: bytes.get(4).copied(),
        });
    } else {
        let text = std::str::from_utf8(bytes).map_err(|e| TraceError::BadLine {
            line: 1,
            reason: format!("not UTF-8 text and not CTRC binary: {e}"),
        })?;
        parse_text_records(text, &mut counted)?;
    }
    match records {
        0 => Err(TraceError::Empty),
        n => Ok(n),
    }
}

/// Parses a trace payload, sniffing binary (magic prefix) vs text.
pub fn parse_trace(bytes: &[u8]) -> Result<Vec<Instr>, TraceError> {
    let mut instrs = Vec::with_capacity(binary_records(bytes));
    read_trace(bytes, &mut |i| instrs.push(i))?;
    Ok(instrs)
}

/// [`parse_trace`] into a packed store, with no `Vec<Instr>` in between.
fn pack_trace(bytes: &[u8]) -> Result<PackedTrace, TraceError> {
    let mut packed = PackedTrace::with_capacity(binary_records(bytes));
    read_trace(bytes, &mut |i| packed.push(i))?;
    Ok(packed)
}

/// Reads a trace file (binary or text, sniffed by content) and packs its
/// records for replay.
pub fn load_trace(path: &std::path::Path) -> Result<PackedTrace, TraceError> {
    let bytes = std::fs::read(path).map_err(|e| TraceError::Io {
        path: path.display().to_string(),
        error: e.to_string(),
    })?;
    pack_trace(&bytes)
}

// ------------------------------------------------------------ packed store

/// Bit of a packed word holding the flag (`taken` or `dep_prev_load`).
const PACK_FLAG_SHIFT: u32 = 2;
/// First bit of the pc delta field (and of an escape's side-table index).
const PACK_PC_SHIFT: u32 = 3;
/// Width of the signed pc delta field.
const PACK_PC_BITS: u32 = 21;
/// First bit of the address delta field, which runs to bit 63.
const PACK_ADDR_SHIFT: u32 = PACK_PC_SHIFT + PACK_PC_BITS;
/// Width of the signed address delta field.
const PACK_ADDR_BITS: u32 = 64 - PACK_ADDR_SHIFT;
/// The escape code in a word's low three bits: an Alu tag with the flag
/// set, which no canonical record has.
const ESCAPE: u64 = 1 << PACK_FLAG_SHIFT;

/// What a packed word's low three bits (kind tag and flag) unpack to:
/// the mask its address passes through (all ones for a Load or Store, 0
/// otherwise) and the [`Instr`] word bits above the pc (the kind, and the
/// flag as `taken` on a Branch or `dep_prev_load` on a Load). The escape
/// code's entry is never read.
const UNPACK: [(u64, u64); 8] = {
    let mut table = [(0, 0); 8];
    let mut low = 0;
    while low < 8 {
        let tag = (low & 0b11) as u64;
        let flag_bit = match tag {
            1 => DEP_BIT,
            3 => TAKEN_BIT,
            _ => 0,
        };
        let memory = if tag == 1 || tag == 2 { u64::MAX } else { 0 };
        table[low] = (memory, (tag << KIND_SHIFT) | ((low >> 2) as u64 * flag_bit));
        low += 1;
    }
    table
};

/// Whether `delta`, read as two's complement, fits a signed field of
/// `bits` bits.
fn fits(delta: u64, bits: u32) -> bool {
    let d = delta as i64;
    (d << (64 - bits)) >> (64 - bits) == d
}

/// The state a packed word's deltas are taken against: the pc a
/// sequential next record would have, and the last memory address.
/// Both start at 0, and a rewind resets them.
#[derive(Debug, Clone, Copy, Default)]
struct Deltas {
    next_pc: u64,
    last_addr: u64,
}

impl Deltas {
    /// `instr`'s pc delta and address delta (0 unless a Load or Store)
    /// against the state, moving the state past `instr`; no branch on the
    /// record's contents.
    #[inline]
    fn advance(&mut self, instr: Instr) -> (u64, u64) {
        let memory = UNPACK[((instr.word >> KIND_SHIFT) & 0b11) as usize].0;
        let pc_delta = instr.pc().wrapping_sub(self.next_pc);
        let addr_delta = instr.addr().wrapping_sub(self.last_addr) & memory;
        self.next_pc = instr.pc() + 4;
        self.last_addr = self.last_addr.wrapping_add(addr_delta);
        (pc_delta, addr_delta)
    }

    /// Unpacks a word that is not an escape and moves the state past it,
    /// with no branch on the record's contents.
    #[inline]
    fn unpack(&mut self, word: u64) -> Instr {
        // Sign-extend each field with an arithmetic shift.
        let pc_delta = ((word << (64 - PACK_ADDR_SHIFT)) as i64 >> (64 - PACK_PC_BITS)) as u64;
        let addr_delta = ((word as i64) >> PACK_ADDR_SHIFT) as u64;
        let pc = self.next_pc.wrapping_add(pc_delta);
        // An Alu's or Branch's address delta is 0, so this is the last
        // memory address again for them.
        let addr = self.last_addr.wrapping_add(addr_delta);
        self.next_pc = pc + 4;
        self.last_addr = addr;
        let (memory, high) = UNPACK[(word & 0b111) as usize];
        Instr {
            addr: addr & memory,
            word: pc | high,
        }
    }
}

/// An append-only store of instruction records at one `u64` each (see the
/// module docs for the layout and the escape rule).
///
/// Records go in one at a time through [`PackedTrace::push`] (or by
/// collecting an iterator) and come back out, in order, through a
/// [`TraceSource`] over an `Arc` of the store.
#[derive(Clone, Default)]
pub struct PackedTrace {
    words: Vec<u64>,
    /// Records whose deltas did not fit, in order; escape words index it.
    escapes: Vec<Instr>,
    /// The delta state after the last record.
    tail: Deltas,
}

impl PackedTrace {
    /// An empty store.
    pub fn new() -> PackedTrace {
        PackedTrace::default()
    }

    /// An empty store with room for `records` records before it grows.
    fn with_capacity(records: usize) -> PackedTrace {
        PackedTrace {
            words: Vec::with_capacity(records),
            ..PackedTrace::default()
        }
    }

    /// Appends one record.
    #[inline]
    pub fn push(&mut self, instr: Instr) {
        let (pc_delta, addr_delta) = self.tail.advance(instr);
        let word = if fits(pc_delta, PACK_PC_BITS) && fits(addr_delta, PACK_ADDR_BITS) {
            let tag = (instr.word >> KIND_SHIFT) & 0b11;
            let flag = u64::from(instr.taken() | instr.dep_prev_load());
            tag | flag << PACK_FLAG_SHIFT
                | (pc_delta & ((1 << PACK_PC_BITS) - 1)) << PACK_PC_SHIFT
                | addr_delta << PACK_ADDR_SHIFT
        } else {
            self.escapes.push(instr);
            ESCAPE | ((self.escapes.len() - 1) as u64) << PACK_PC_SHIFT
        };
        self.words.push(word);
    }

    /// Records stored.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Records stored whole in the side table because a delta did not fit.
    pub fn escapes(&self) -> usize {
        self.escapes.len()
    }

    /// Bytes the records occupy: one word each, plus one [`Instr`] per
    /// escape (capacity not yet filled is not counted).
    pub fn record_bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<u64>()
            + self.escapes.len() * std::mem::size_of::<Instr>()
    }
}

impl std::fmt::Debug for PackedTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PackedTrace")
            .field("records", &self.len())
            .field("escapes", &self.escapes())
            .finish()
    }
}

impl FromIterator<Instr> for PackedTrace {
    fn from_iter<I: IntoIterator<Item = Instr>>(iter: I) -> PackedTrace {
        let iter = iter.into_iter();
        let mut packed = PackedTrace::with_capacity(iter.size_hint().0);
        for instr in iter {
            packed.push(instr);
        }
        packed
    }
}

/// Replays a packed trace as an infinite instruction stream: on
/// exhaustion the source rewinds to the first record, so epochs keep
/// receiving instructions however short the trace is. Sources over one
/// shared store are independent.
#[derive(Debug, Clone)]
pub struct TraceSource {
    trace: Arc<PackedTrace>,
    pos: usize,
    deltas: Deltas,
    wraps: u64,
}

impl TraceSource {
    /// A replay of `trace` from its first record.
    ///
    /// Returns [`TraceError::Empty`] for an empty store (it cannot feed an
    /// infinite stream).
    pub fn new(trace: Arc<PackedTrace>) -> Result<TraceSource, TraceError> {
        if trace.is_empty() {
            return Err(TraceError::Empty);
        }
        Ok(TraceSource {
            trace,
            pos: 0,
            deltas: Deltas::default(),
            wraps: 0,
        })
    }

    /// Records in one pass of the trace.
    pub fn len(&self) -> usize {
        self.trace.len()
    }

    /// Always false: construction rejects empty traces.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// How many times the source has rewound to the start.
    pub fn wraps(&self) -> u64 {
        self.wraps
    }

    /// The escaped record behind `word`, moving the delta state past it.
    #[cold]
    #[inline(never)]
    fn escaped(&mut self, word: u64) -> Instr {
        let instr = self.trace.escapes[(word >> PACK_PC_SHIFT) as usize];
        self.deltas.advance(instr);
        instr
    }
}

impl InstrSource for TraceSource {
    #[inline]
    fn next_instr(&mut self) -> Instr {
        let word = self.trace.words[self.pos];
        let instr = if word & 0b111 == ESCAPE {
            self.escaped(word)
        } else {
            self.deltas.unpack(word)
        };
        self.pos += 1;
        if self.pos == self.trace.words.len() {
            self.pos = 0;
            self.deltas = Deltas::default();
            self.wraps += 1;
        }
        instr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_fields() {
        let l = Instr::load(0x400, 0x1000);
        assert_eq!(l.kind(), InstrKind::Load);
        assert_eq!(l.addr(), 0x1000);
        assert_eq!(l.pc(), 0x400);
        let b = Instr::branch(0x404, true);
        assert_eq!(b.kind(), InstrKind::Branch);
        assert!(b.taken());
        assert_eq!(Instr::alu(0).kind(), InstrKind::Alu);
        assert_eq!(Instr::store(0, 8).kind(), InstrKind::Store);
    }

    #[test]
    fn instr_is_two_words() {
        assert_eq!(std::mem::size_of::<Instr>(), 16);
        assert_eq!(std::mem::align_of::<Instr>(), 8);
    }

    /// One record of kind `kind` (0..4 in tag order) built from `pc`,
    /// `addr` and `flag`; the flag is `dep_prev_load` on a load and
    /// `taken` on a branch.
    fn build(kind: u8, pc: u64, addr: u64, flag: bool) -> Instr {
        match kind {
            0 => Instr::alu(pc),
            1 => Instr::load(pc, addr).with_dep_prev_load(flag),
            2 => Instr::store(pc, addr),
            _ => Instr::branch(pc, flag),
        }
    }

    proptest::proptest! {
        #[test]
        fn accessors_return_what_the_constructor_was_given(
            kind in 0u8..4,
            pc in 0..TRACE_ADDR_LIMIT,
            addr in 0..TRACE_ADDR_LIMIT,
            flag in proptest::prelude::any::<bool>(),
        ) {
            let i = build(kind, pc, addr, flag);
            let want_kind = InstrKind::from_tag(kind).expect("tag 0..4");
            let memory = matches!(want_kind, InstrKind::Load | InstrKind::Store);
            proptest::prop_assert_eq!(i.kind(), want_kind);
            proptest::prop_assert_eq!(i.pc(), pc);
            proptest::prop_assert_eq!(i.addr(), if memory { addr } else { 0 });
            proptest::prop_assert_eq!(i.taken(), flag && want_kind == InstrKind::Branch);
            proptest::prop_assert_eq!(i.dep_prev_load(), flag && want_kind == InstrKind::Load);
        }
    }

    #[test]
    fn debug_prints_the_five_fields_in_order() {
        assert_eq!(
            format!("{:?}", Instr::load(0x40c, 0x9000).with_dep_prev_load(true)),
            "Instr { kind: Load, addr: 36864, pc: 1036, taken: false, dep_prev_load: true }"
        );
        assert_eq!(
            format!("{:?}", Instr::branch(0x10, true)),
            "Instr { kind: Branch, addr: 0, pc: 16, taken: true, dep_prev_load: false }"
        );
    }

    const TOP: u64 = TRACE_ADDR_LIMIT - 1;

    #[test]
    fn alu_accepts_pc_below_2_pow_48() {
        assert_eq!(Instr::alu(TOP).pc(), TOP);
    }

    #[test]
    #[should_panic(expected = "pc 0x1000000000000 is not below 2^48")]
    fn alu_rejects_pc_at_2_pow_48() {
        Instr::alu(TRACE_ADDR_LIMIT);
    }

    #[test]
    fn branch_accepts_pc_below_2_pow_48() {
        assert_eq!(Instr::branch(TOP, true).pc(), TOP);
    }

    #[test]
    #[should_panic(expected = "pc 0x1000000000000 is not below 2^48")]
    fn branch_rejects_pc_at_2_pow_48() {
        Instr::branch(TRACE_ADDR_LIMIT, true);
    }

    #[test]
    fn load_accepts_pc_and_addr_below_2_pow_48() {
        let i = Instr::load(TOP, TOP);
        assert_eq!((i.pc(), i.addr()), (TOP, TOP));
    }

    #[test]
    #[should_panic(expected = "pc 0x1000000000000 is not below 2^48")]
    fn load_rejects_pc_at_2_pow_48() {
        Instr::load(TRACE_ADDR_LIMIT, 0x40);
    }

    #[test]
    #[should_panic(expected = "addr 0x1000000000000 is not below 2^48")]
    fn load_rejects_addr_at_2_pow_48() {
        Instr::load(0x400, TRACE_ADDR_LIMIT);
    }

    #[test]
    fn store_accepts_pc_and_addr_below_2_pow_48() {
        let i = Instr::store(TOP, TOP);
        assert_eq!((i.pc(), i.addr()), (TOP, TOP));
    }

    #[test]
    #[should_panic(expected = "pc 0x1000000000000 is not below 2^48")]
    fn store_rejects_pc_at_2_pow_48() {
        Instr::store(TRACE_ADDR_LIMIT, 0x40);
    }

    #[test]
    #[should_panic(expected = "addr 0x1000000000000 is not below 2^48")]
    fn store_rejects_addr_at_2_pow_48() {
        Instr::store(0x400, TRACE_ADDR_LIMIT);
    }

    #[test]
    fn dependent_form_sets_and_clears_the_flag() {
        let plain = Instr::load(0x400, 0x1000);
        let dep = plain.with_dep_prev_load(true);
        assert!(dep.dep_prev_load());
        assert_eq!(dep.with_dep_prev_load(false), plain);
    }

    #[test]
    #[should_panic(expected = "dep_prev_load applies to loads only")]
    fn dependent_form_rejects_non_loads() {
        let _ = Instr::store(0x400, 0x40).with_dep_prev_load(true);
    }

    #[test]
    fn closures_are_sources() {
        let mut n = 0u64;
        let mut src = move || {
            n += 4;
            Instr::alu(n)
        };
        assert_eq!(src.next_instr().pc(), 4);
        assert_eq!(src.next_instr().pc(), 8);
    }

    fn sample() -> Vec<Instr> {
        vec![
            Instr::alu(0x400),
            Instr::load(0x404, 0x1000),
            Instr::store(0x408, 0x2040),
            Instr::load(0x40c, 0x9000).with_dep_prev_load(true),
            Instr::branch(0x410, true),
            Instr::branch(0x414, false),
        ]
    }

    #[test]
    fn binary_roundtrip_is_exact() {
        let instrs = sample();
        let bytes = encode_trace(&instrs);
        assert!(bytes.starts_with(&TRACE_MAGIC));
        assert_eq!(
            bytes.len(),
            TRACE_MAGIC.len() + instrs.len() * TRACE_RECORD_BYTES
        );
        assert_eq!(parse_trace(&bytes).expect("parses"), instrs);
    }

    #[test]
    fn text_roundtrip_is_exact() {
        let instrs = sample();
        let text = format_trace_text(&instrs);
        assert_eq!(parse_trace(text.as_bytes()).expect("parses"), instrs);
    }

    #[test]
    fn text_accepts_comments_blank_lines_and_number_bases() {
        let text = "# header\n\n  L 0x400 4096  # inline comment\nB 1028 T\n";
        let instrs = parse_trace_text(text).expect("parses");
        assert_eq!(
            instrs,
            vec![Instr::load(0x400, 4096), Instr::branch(1028, true)]
        );
    }

    #[test]
    fn truncated_binary_record_errors() {
        let mut bytes = encode_trace(&sample());
        bytes.pop();
        assert_eq!(
            parse_trace(&bytes).expect_err("truncated"),
            TraceError::Truncated { record: 5 }
        );
    }

    #[test]
    fn bad_kind_tag_errors() {
        let mut bytes = encode_trace(&sample());
        bytes[TRACE_MAGIC.len()] = 7;
        assert_eq!(
            parse_trace(&bytes).expect_err("bad tag"),
            TraceError::BadKind { record: 0, tag: 7 }
        );
    }

    #[test]
    fn undefined_flag_bits_error() {
        let mut bytes = encode_trace(&sample());
        bytes[TRACE_MAGIC.len() + 1] = 0b100;
        assert!(matches!(
            parse_trace(&bytes).expect_err("bad flags"),
            TraceError::BadFlags { record: 0, .. }
        ));
    }

    #[test]
    fn binary_decoder_requires_the_magic() {
        assert_eq!(decode_trace(b"A 0x400\n"), Err(TraceError::BadMagic));
    }

    #[test]
    fn other_ctrc_versions_error_instead_of_text_fallback() {
        assert_eq!(
            parse_trace(b"CTRC\x02rest"),
            Err(TraceError::UnsupportedVersion { found: Some(2) })
        );
        assert_eq!(
            parse_trace(b"CTRC"),
            Err(TraceError::UnsupportedVersion { found: None })
        );
    }

    #[test]
    fn constructed_records_round_trip_through_both_encodings() {
        // Every kind with every flag value, at both ends of the bound.
        let mut instrs = Vec::new();
        for (pc, addr) in [(0, 0), (TOP, TOP)] {
            for kind in 0..4 {
                for flag in [false, true] {
                    instrs.push(build(kind, pc, addr, flag));
                }
            }
        }
        let binary = parse_trace(&encode_trace(&instrs)).expect("binary decodes");
        let text = parse_trace(format_trace_text(&instrs).as_bytes()).expect("text parses");
        assert_eq!(binary, instrs);
        assert_eq!(text, instrs);
    }

    #[test]
    fn nonzero_addr_on_alu_or_branch_errors() {
        // Record 0 is an Alu, record 4 a Branch: neither can carry an
        // address through the text encoding, so binary rejects one too.
        for record in [0usize, 4] {
            let mut bytes = encode_trace(&sample());
            bytes[TRACE_MAGIC.len() + record * TRACE_RECORD_BYTES + 10] = 1;
            assert_eq!(
                parse_trace(&bytes).expect_err("addr on alu/branch"),
                TraceError::BadAddr { record, addr: 1 }
            );
        }
    }

    #[test]
    fn kind_inapplicable_flag_bits_error() {
        // A taken bit on a load (record 1) can't survive a text round
        // trip, so the binary decoder rejects it too.
        let mut bytes = encode_trace(&sample());
        bytes[TRACE_MAGIC.len() + TRACE_RECORD_BYTES + 1] = 0b01;
        assert!(matches!(
            parse_trace(&bytes).expect_err("taken on a load"),
            TraceError::BadFlags {
                record: 1,
                flags: 0b01
            }
        ));
        // And dep_prev_load on a branch (record 4).
        let mut bytes = encode_trace(&sample());
        bytes[TRACE_MAGIC.len() + 4 * TRACE_RECORD_BYTES + 1] = 0b11;
        assert!(matches!(
            parse_trace(&bytes).expect_err("dep on a branch"),
            TraceError::BadFlags {
                record: 4,
                flags: 0b11
            }
        ));
    }

    #[test]
    fn malformed_text_lines_error_with_position() {
        for (text, want_line) in [
            ("L 0x400\n", 1),
            ("A 0x400\nZ 0x404\n", 2),
            ("B 0x400 maybe\n", 1),
            ("S 0x400 0x1000 junk\n", 1),
            ("L 0xzz 0x10\n", 1),
        ] {
            match parse_trace_text(text).expect_err(text) {
                TraceError::BadLine { line, .. } => assert_eq!(line, want_line, "{text}"),
                other => panic!("{text}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn empty_traces_are_rejected() {
        assert_eq!(parse_trace(b"# only a comment\n"), Err(TraceError::Empty));
        assert_eq!(
            parse_trace(&encode_trace(&[])).expect_err("empty"),
            TraceError::Empty
        );
    }

    #[test]
    fn trace_source_rewinds_on_exhaustion() {
        let instrs = sample();
        let mut src =
            TraceSource::new(Arc::new(instrs.iter().copied().collect())).expect("non-empty");
        assert_eq!(src.len(), 6);
        assert!(!src.is_empty());
        for lap in 0..3 {
            for want in instrs.iter() {
                assert_eq!(src.wraps(), lap);
                assert_eq!(src.next_instr(), *want);
            }
        }
        assert_eq!(src.wraps(), 3);
    }

    #[test]
    fn packing_a_payload_replays_what_parsing_it_returns() {
        let instrs = sample();
        for bytes in [
            encode_trace(&instrs),
            format_trace_text(&instrs).into_bytes(),
        ] {
            let mut src =
                TraceSource::new(Arc::new(pack_trace(&bytes).expect("packs"))).expect("non-empty");
            let replayed: Vec<Instr> = instrs.iter().map(|_| src.next_instr()).collect();
            assert_eq!(replayed, parse_trace(&bytes).expect("parses"));
        }
        assert_eq!(
            pack_trace(b"# nothing\n").expect_err("empty"),
            TraceError::Empty
        );
        assert_eq!(
            pack_trace(b"CTRC\x02").expect_err("version"),
            TraceError::UnsupportedVersion { found: Some(2) }
        );
    }

    #[test]
    fn load_trace_reports_missing_files() {
        let err = load_trace(std::path::Path::new("/nonexistent/x.ctrace")).expect_err("missing");
        assert!(matches!(err, TraceError::Io { .. }));
        assert!(err.to_string().contains("x.ctrace"));
    }
}
