//! MSR-Cambridge / SNIA IOTTA block-trace ingestion.
//!
//! The traces the paper replays (SNIA's enterprise set, summarised in
//! its Table 1) ship in the MSR-Cambridge CSV schema — seven fields per
//! record:
//!
//! ```text
//! Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime
//! 128166372003061629,hm,0,Read,383496192,32768,413
//! ```
//!
//! `Timestamp` is a Windows filetime (100 ns ticks since 1601),
//! `Offset`/`Size` are bytes, `ResponseTime` is in 100 ns ticks. This
//! module parses that schema losslessly ([`parse_msr`] /
//! [`write_msr`]), and [`TraceMapper`] deterministically re-bases the
//! records onto a concrete array: byte offsets become page-aligned LPNs
//! inside the array's address space (per-disk striping keeps distinct
//! source disks in distinct regions) and timestamps are linearly
//! rescaled so any trace replays in a chosen simulated span.
//!
//! Malformed input never panics — truncated records, unknown op types,
//! byte ranges that overflow, and timestamps running backwards all come
//! back as typed [`CsvError`] variants.

use std::io::{BufRead, BufReader, Read, Write};

use triplea_core::{ArrayConfig, IoOp, Trace, TraceRequest, MAX_ARRIVAL_NS};
use triplea_ftl::LogicalPage;
use triplea_sim::SimTime;

/// Errors produced while parsing an MSR-Cambridge CSV trace.
#[derive(Debug)]
pub enum CsvError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A line failed to parse; carries the 1-based line number and a
    /// description.
    Parse {
        /// 1-based line number of the offending record.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// A record has too few (truncated mid-line) or too many fields.
    Truncated {
        /// 1-based line number of the offending record.
        line: usize,
        /// Fields the format requires.
        expected: usize,
        /// Fields actually present.
        got: usize,
    },
    /// A numeric field falls outside its permitted range (a zero-byte
    /// access, a disk number past `u32`, or an offset+size that would
    /// overflow the address arithmetic).
    OutOfRange {
        /// 1-based line number of the offending record.
        line: usize,
        /// Which field violated its range.
        field: &'static str,
        /// The offending value.
        value: u64,
        /// Exclusive upper bound the value must stay under.
        limit: u64,
    },
    /// A timestamp went backwards; MSR/SNIA records must be
    /// time-sorted.
    NonMonotonic {
        /// 1-based line number of the offending record.
        line: usize,
        /// The regressing timestamp.
        at: u64,
        /// The preceding record's timestamp.
        prev: u64,
    },
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "trace i/o error: {e}"),
            CsvError::Parse { line, message } => {
                write!(f, "trace parse error at line {line}: {message}")
            }
            CsvError::Truncated {
                line,
                expected,
                got,
            } => write!(
                f,
                "trace parse error at line {line}: expected {expected} fields, got {got}"
            ),
            CsvError::OutOfRange {
                line,
                field,
                value,
                limit,
            } => write!(
                f,
                "trace parse error at line {line}: {field} {value} out of range (limit {limit})"
            ),
            CsvError::NonMonotonic { line, at, prev } => write!(
                f,
                "trace parse error at line {line}: timestamp {at} precedes {prev} \
                 (records must be time-sorted)"
            ),
        }
    }
}

impl std::error::Error for CsvError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CsvError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CsvError {
    fn from(e: std::io::Error) -> Self {
        CsvError::Io(e)
    }
}

fn parse_u64(s: &str, what: &str, line: usize) -> Result<u64, CsvError> {
    s.trim().parse().map_err(|_| CsvError::Parse {
        line,
        message: format!("invalid {what}: {s:?}"),
    })
}

/// One record of an MSR-Cambridge-format block trace, preserved
/// losslessly (parse → [`write_msr`] → parse is the identity).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MsrRecord {
    /// Windows filetime: 100 ns ticks since 1601-01-01.
    pub timestamp: u64,
    /// Source host name (e.g. `hm`, `proj`).
    pub hostname: String,
    /// Disk number within the host.
    pub disk: u32,
    /// Read or write.
    pub op: IoOp,
    /// Byte offset of the access on the source disk.
    pub offset: u64,
    /// Length of the access in bytes (> 0).
    pub size: u64,
    /// Recorded device response time, in 100 ns ticks.
    pub response: u64,
}

fn parse_msr_op(s: &str, line: usize) -> Result<IoOp, CsvError> {
    match s.trim().to_ascii_lowercase().as_str() {
        "read" | "r" => Ok(IoOp::Read),
        "write" | "w" => Ok(IoOp::Write),
        other => Err(CsvError::Parse {
            line,
            message: format!("unknown MSR op {other:?} (expected Read/Write)"),
        }),
    }
}

/// Longest first-to-last span [`parse_msr`] accepts, in filetime ticks:
/// [`MAX_ARRIVAL_NS`], about 146 years. Natural replay turns a tick into
/// 100 ns of simulated time and starts at the first record, so every
/// accepted record arrives within what a run accepts; a capture
/// spanning longer is corrupt.
const MAX_SPAN_TICKS: u64 = MAX_ARRIVAL_NS / 100;

/// Parses an MSR-Cambridge CSV block trace.
///
/// Blank lines, `#` comments, and a leading `Timestamp,...` header are
/// skipped. Records must be time-sorted, exactly as SNIA publishes
/// them; a regressing timestamp is a corrupt download and comes back as
/// [`CsvError::NonMonotonic`] rather than silently reordering I/O.
///
/// # Errors
///
/// [`CsvError::Io`] for read failures; [`CsvError::Truncated`],
/// [`CsvError::Parse`], [`CsvError::OutOfRange`] (zero-byte access,
/// `offset + size` overflowing, or a record more than 2^62 ns after the
/// first), or [`CsvError::NonMonotonic`] for malformed records, each
/// carrying the 1-based line number.
///
/// # Example
///
/// ```
/// use triplea_workloads::msr::parse_msr;
///
/// let text = "Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime\n\
///             128166372003061629,hm,0,Read,383496192,32768,413\n\
///             128166372003964527,hm,0,Write,2011652096,4096,1214\n";
/// let records = parse_msr(text.as_bytes())?;
/// assert_eq!(records.len(), 2);
/// assert_eq!(records[0].size, 32768);
/// # Ok::<(), triplea_workloads::CsvError>(())
/// ```
pub fn parse_msr<R: Read>(reader: R) -> Result<Vec<MsrRecord>, CsvError> {
    let mut out: Vec<MsrRecord> = Vec::new();
    let mut seen_record = false;
    for (idx, line) in BufReader::new(reader).lines().enumerate() {
        let lineno = idx + 1;
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if !seen_record && line.to_ascii_lowercase().starts_with("timestamp") {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != 7 {
            return Err(CsvError::Truncated {
                line: lineno,
                expected: 7,
                got: fields.len(),
            });
        }
        let timestamp = parse_u64(fields[0], "timestamp", lineno)?;
        let disk = parse_u64(fields[2], "disk number", lineno)?;
        if disk > u32::MAX as u64 {
            return Err(CsvError::OutOfRange {
                line: lineno,
                field: "disk number",
                value: disk,
                limit: u32::MAX as u64,
            });
        }
        let op = parse_msr_op(fields[3], lineno)?;
        let offset = parse_u64(fields[4], "offset", lineno)?;
        let size = parse_u64(fields[5], "size", lineno)?;
        let response = parse_u64(fields[6], "response time", lineno)?;
        if size == 0 || offset.checked_add(size).is_none() {
            return Err(CsvError::OutOfRange {
                line: lineno,
                field: "size",
                value: size,
                limit: u64::MAX - offset,
            });
        }
        if let Some(prev) = out.last() {
            if timestamp < prev.timestamp {
                return Err(CsvError::NonMonotonic {
                    line: lineno,
                    at: timestamp,
                    prev: prev.timestamp,
                });
            }
        }
        if let Some(first) = out.first() {
            if timestamp - first.timestamp > MAX_SPAN_TICKS {
                return Err(CsvError::OutOfRange {
                    line: lineno,
                    field: "timestamp",
                    value: timestamp,
                    limit: first.timestamp.saturating_add(MAX_SPAN_TICKS + 1),
                });
            }
        }
        seen_record = true;
        out.push(MsrRecord {
            timestamp,
            hostname: fields[1].trim().to_string(),
            disk: disk as u32,
            op,
            offset,
            size,
            response,
        });
    }
    Ok(out)
}

/// Writes records back out in the MSR-Cambridge schema (with header),
/// the lossless inverse of [`parse_msr`].
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_msr<W: Write>(mut writer: W, records: &[MsrRecord]) -> std::io::Result<()> {
    writeln!(
        writer,
        "Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime"
    )?;
    for r in records {
        writeln!(
            writer,
            "{},{},{},{},{},{},{}",
            r.timestamp,
            r.hostname,
            r.disk,
            match r.op {
                IoOp::Read => "Read",
                IoOp::Write => "Write",
            },
            r.offset,
            r.size,
            r.response
        )?;
    }
    Ok(())
}

/// Deterministically re-bases MSR records onto a concrete array.
///
/// * **Addresses** — byte offsets divide down to pages; each distinct
///   source disk gets its own stride-offset region of the LPN space, so
///   a multi-disk trace exercises multiple clusters instead of aliasing
///   onto one; everything wraps modulo the array size, keeping every
///   mapped request inside the address space by construction.
/// * **Time** — the trace's own span (first to last timestamp) is
///   linearly rescaled into `target_span_ns` with pure integer (u128)
///   arithmetic: the same records and knobs produce bit-identical
///   traces on every host, which is what lets trace-replay scenarios be
///   golden-snapshotted.
///
/// # Example
///
/// ```
/// use triplea_core::ArrayConfig;
/// use triplea_workloads::msr::{parse_msr, TraceMapper};
///
/// let text = "128166372003061629,hm,0,Read,383496192,32768,413\n\
///             128166372013061629,hm,0,Write,2011652096,4096,1214\n";
/// let records = parse_msr(text.as_bytes())?;
/// let cfg = ArrayConfig::small_test();
/// let trace = TraceMapper::new(&cfg).target_span_ns(1_000_000).map(&records);
/// assert_eq!(trace.len(), 2);
/// assert_eq!(trace.requests()[1].at.as_nanos(), 1_000_000);
/// # Ok::<(), triplea_workloads::CsvError>(())
/// ```
#[derive(Clone, Debug)]
pub struct TraceMapper {
    page_bytes: u64,
    total_pages: u64,
    target_span_ns: Option<u64>,
    max_request_pages: u32,
    disk_stride_pages: u64,
}

impl TraceMapper {
    /// A mapper for `cfg`'s page size and LPN space. Defaults: natural
    /// timestamps (100 ns ticks × 100), requests clamped to 64 pages,
    /// disks striped 1/16 of the array apart.
    pub fn new(cfg: &ArrayConfig) -> Self {
        let total = cfg.shape.total_pages();
        TraceMapper {
            page_bytes: cfg.shape.flash.page_size as u64,
            total_pages: total,
            target_span_ns: None,
            max_request_pages: 64,
            disk_stride_pages: (total / 16).max(1),
        }
    }

    /// Rescales the trace's span to exactly `ns` of simulated time
    /// (first record at 0, last at `ns`).
    pub fn target_span_ns(mut self, ns: u64) -> Self {
        self.target_span_ns = Some(ns);
        self
    }

    /// Clamps mapped request sizes to `pages` (large enterprise
    /// transfers otherwise monopolise an ONFi bus for milliseconds).
    ///
    /// # Panics
    ///
    /// Panics if `pages` is zero.
    pub fn max_request_pages(mut self, pages: u32) -> Self {
        assert!(pages >= 1, "request clamp must be at least one page");
        self.max_request_pages = pages;
        self
    }

    /// Sets the LPN stride between consecutive source disks' regions.
    pub fn disk_stride_pages(mut self, pages: u64) -> Self {
        self.disk_stride_pages = pages.max(1);
        self
    }

    /// Maps records onto the array. Empty input maps to an empty trace.
    pub fn map(&self, records: &[MsrRecord]) -> Trace {
        let Some(first) = records.first() else {
            return Trace::default();
        };
        let t0 = first.timestamp;
        let span_ticks = records.last().map(|r| r.timestamp - t0).unwrap_or(0);
        let mut out = Vec::with_capacity(records.len());
        for r in records {
            let pages = r
                .size
                .div_ceil(self.page_bytes)
                .clamp(1, self.max_request_pages as u64)
                .min(self.total_pages) as u32;
            // Stride per source disk, then wrap so lpn + pages always
            // fits the array.
            let raw = (r.offset / self.page_bytes)
                .wrapping_add((r.disk as u64).wrapping_mul(self.disk_stride_pages));
            let lpn = raw % (self.total_pages - pages as u64 + 1);
            let rel_ticks = r.timestamp - t0;
            let at_ns = match self.target_span_ns {
                Some(target) if span_ticks > 0 => {
                    (rel_ticks as u128 * target as u128 / span_ticks as u128) as u64
                }
                Some(_) => 0,
                // Natural replay: one filetime tick is 100 ns.
                None => rel_ticks.saturating_mul(100),
            };
            out.push(TraceRequest::new(
                SimTime::from_nanos(at_ns),
                r.op,
                LogicalPage(lpn),
                pages,
            ));
        }
        Trace::new(out)
    }
}

/// Serialises a synthetic [`Trace`] into the MSR-Cambridge schema — the
/// bridge that lets the scenario catalog exercise the *real* ingestion
/// path (serialise → [`parse_msr`] → [`TraceMapper::map`]) without
/// shipping multi-gigabyte SNIA downloads.
///
/// Timestamps become filetime ticks (ns ÷ 100, offset to a plausible
/// 2008 epoch like the published traces), LPNs become byte offsets, and
/// the response column carries zero (unknown until simulated).
pub fn to_msr_csv(trace: &Trace, hostname: &str, page_bytes: u64) -> String {
    use std::fmt::Write as _;
    /// First timestamp of the published MSR-Cambridge captures (2008).
    const MSR_EPOCH_TICKS: u64 = 128_166_372_000_000_000;
    let mut out = String::with_capacity(trace.len() * 48 + 64);
    out.push_str("Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime\n");
    for r in trace.requests() {
        let _ = writeln!(
            out,
            "{},{},0,{},{},{},0",
            MSR_EPOCH_TICKS + r.at.as_nanos() / 100,
            hostname,
            match r.op {
                IoOp::Read => "Read",
                IoOp::Write => "Write",
            },
            r.lpn.0 * page_bytes,
            r.pages as u64 * page_bytes,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use triplea_core::ArrayConfig;

    const SAMPLE: &str = "\
Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime
128166372003061629,hm,0,Read,383496192,32768,413
128166372003564792,hm,0,Write,2011652096,4096,1214
128166372004316395,hm,1,Read,383528960,65536,212
128166372005643253,hm,1,Write,2011656192,8192,327
";

    #[test]
    fn parses_the_published_schema() {
        let r = parse_msr(SAMPLE.as_bytes()).unwrap();
        assert_eq!(r.len(), 4);
        assert_eq!(r[0].op, IoOp::Read);
        assert_eq!(r[0].offset, 383_496_192);
        assert_eq!(r[1].op, IoOp::Write);
        assert_eq!(r[2].disk, 1);
        assert_eq!(r[3].response, 327);
        assert_eq!(r[0].hostname, "hm");
    }

    #[test]
    fn roundtrip_is_lossless() {
        let records = parse_msr(SAMPLE.as_bytes()).unwrap();
        let mut buf = Vec::new();
        write_msr(&mut buf, &records).unwrap();
        let again = parse_msr(buf.as_slice()).unwrap();
        assert_eq!(records, again);
    }

    #[test]
    fn truncated_records_are_typed_errors() {
        let text = "128166372003061629,hm,0,Read,383496192,32768\n";
        assert!(matches!(
            parse_msr(text.as_bytes()),
            Err(CsvError::Truncated {
                line: 1,
                expected: 7,
                got: 6,
            })
        ));
    }

    #[test]
    fn regressing_timestamps_are_typed_errors() {
        let text = "\
128166372003061629,hm,0,Read,0,4096,0
128166372003061628,hm,0,Read,4096,4096,0
";
        match parse_msr(text.as_bytes()) {
            Err(CsvError::NonMonotonic { line, at, prev }) => {
                assert_eq!(line, 2);
                assert!(at < prev);
            }
            other => panic!("expected NonMonotonic, got {other:?}"),
        }
    }

    #[test]
    fn zero_size_and_overflowing_ranges_are_typed_errors() {
        let zero = "128166372003061629,hm,0,Read,0,0,0\n";
        assert!(matches!(
            parse_msr(zero.as_bytes()),
            Err(CsvError::OutOfRange { field: "size", .. })
        ));
        let overflow = format!("1,hm,0,Read,{},4096,0\n", u64::MAX - 2);
        assert!(matches!(
            parse_msr(overflow.as_bytes()),
            Err(CsvError::OutOfRange { field: "size", .. })
        ));
    }

    #[test]
    fn spans_past_the_simulated_clock_are_typed_errors() {
        let last = 5 + MAX_SPAN_TICKS;
        let inside = format!("5,hm,0,Read,0,4096,0\n{last},hm,0,Read,0,4096,0\n");
        assert_eq!(parse_msr(inside.as_bytes()).unwrap().len(), 2);
        let outside = format!("5,hm,0,Read,0,4096,0\n{},hm,0,Read,0,4096,0\n", last + 1);
        match parse_msr(outside.as_bytes()) {
            Err(CsvError::OutOfRange {
                line: 2,
                field: "timestamp",
                value,
                limit,
            }) => assert_eq!((value, limit), (last + 1, last + 1)),
            other => panic!("expected OutOfRange, got {other:?}"),
        }
    }

    #[test]
    fn unknown_op_is_a_parse_error() {
        let text = "1,hm,0,Trim,0,4096,0\n";
        assert!(matches!(
            parse_msr(text.as_bytes()),
            Err(CsvError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn mapper_stays_inside_the_lpn_space() {
        let cfg = ArrayConfig::small_test();
        let text = format!(
            "{SAMPLE}128166372005643253,hm,7,Read,{},4096,0\n",
            u64::MAX / 2
        );
        let records = parse_msr(text.as_bytes()).unwrap();
        let total = cfg.shape.total_pages();
        // The widest stride wraps, never overflows.
        for mapper in [
            TraceMapper::new(&cfg),
            TraceMapper::new(&cfg).disk_stride_pages(u64::MAX),
        ] {
            for r in mapper.map(&records).requests() {
                assert!(r.lpn.0 + r.pages as u64 <= total, "lpn {} escapes", r.lpn.0);
                assert!(r.pages >= 1);
            }
        }
    }

    #[test]
    fn mapper_rescales_time_deterministically() {
        let cfg = ArrayConfig::small_test();
        let records = parse_msr(SAMPLE.as_bytes()).unwrap();
        let a = TraceMapper::new(&cfg)
            .target_span_ns(10_000_000)
            .map(&records);
        let b = TraceMapper::new(&cfg)
            .target_span_ns(10_000_000)
            .map(&records);
        assert_eq!(a.requests(), b.requests());
        assert_eq!(a.requests()[0].at.as_nanos(), 0);
        assert_eq!(a.requests().last().unwrap().at.as_nanos(), 10_000_000);
        // Interior points keep their relative order and proportions.
        let natural = TraceMapper::new(&cfg).map(&records);
        assert_eq!(
            natural.requests()[1].at.as_nanos(),
            (records[1].timestamp - records[0].timestamp) * 100
        );
    }

    #[test]
    fn mapper_separates_disks_and_clamps_large_requests() {
        let cfg = ArrayConfig::small_test();
        let text = "\
1,hm,0,Read,0,4096,0
1,hm,1,Read,0,4096,0
2,hm,0,Write,0,10485760,0
";
        let records = parse_msr(text.as_bytes()).unwrap();
        let trace = TraceMapper::new(&cfg).max_request_pages(16).map(&records);
        let rs = trace.requests();
        assert_ne!(rs[0].lpn, rs[1].lpn, "disks 0 and 1 must not alias");
        assert_eq!(rs[2].pages, 16, "10 MB transfer clamps to 16 pages");
    }

    #[test]
    fn synthetic_bridge_roundtrips_through_the_real_parser() {
        let cfg = ArrayConfig::small_test();
        let original = crate::Microbench::read().requests(64).build(&cfg, 3);
        let csv = to_msr_csv(&original, "synth", cfg.shape.flash.page_size as u64);
        let records = parse_msr(csv.as_bytes()).unwrap();
        assert_eq!(records.len(), 64);
        let mapped = TraceMapper::new(&cfg).map(&records);
        assert_eq!(mapped.len(), 64);
        for r in mapped.requests() {
            assert!(r.lpn.0 + r.pages as u64 <= cfg.shape.total_pages());
        }
    }

    #[test]
    fn empty_input_maps_to_empty_trace() {
        let cfg = ArrayConfig::small_test();
        assert!(parse_msr("".as_bytes()).unwrap().is_empty());
        assert!(TraceMapper::new(&cfg).map(&[]).is_empty());
    }

    #[test]
    fn error_display_is_informative() {
        let e = CsvError::Parse {
            line: 7,
            message: "boom".into(),
        };
        assert!(e.to_string().contains("line 7"));
        let e = CsvError::Truncated {
            line: 3,
            expected: 4,
            got: 2,
        };
        assert!(e.to_string().contains("line 3"), "{e}");
        let e = CsvError::OutOfRange {
            line: 9,
            field: "lpn",
            value: 100,
            limit: 50,
        };
        assert!(e.to_string().contains("lpn 100"), "{e}");
        let e = CsvError::NonMonotonic {
            line: 4,
            at: 10,
            prev: 20,
        };
        assert!(e.to_string().contains("precedes"), "{e}");
    }
}
