//! SPC-format trace I/O.
//!
//! The UMass Trace Repository distributes the WebSearch and FinTrans traces
//! in the Storage Performance Council format: one CSV record per request,
//!
//! ```text
//! ASU,LBA,Size,Opcode,Timestamp
//! 0,47126,8192,R,0.011413
//! ```
//!
//! where `ASU` is the application storage unit, `LBA` the logical block
//! address, `Size` the transfer size in bytes, `Opcode` `R`/`W` (case
//! insensitive), and `Timestamp` the arrival time in seconds. This module
//! reads and writes that format so the paper's original traces can be used
//! verbatim in place of the synthetic profiles.

use std::error::Error;
use std::fmt;
use std::io::{self, BufRead, BufReader, Read, Write};

use crate::request::{LogicalBlock, Request, RequestKind};
use crate::time::SimTime;
use crate::workload::Workload;

/// An error produced while parsing an SPC trace.
#[derive(Debug)]
pub enum ParseSpcError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A malformed record, with its 1-based line and field position and a
    /// description.
    Malformed {
        /// 1-based line number of the offending record.
        line: usize,
        /// 1-based comma-separated field index the error was detected in.
        column: usize,
        /// What was wrong with the record.
        reason: String,
    },
}

impl fmt::Display for ParseSpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseSpcError::Io(e) => write!(f, "i/o error reading SPC trace: {e}"),
            ParseSpcError::Malformed {
                line,
                column,
                reason,
            } => {
                write!(
                    f,
                    "malformed SPC record at line {line}, field {column}: {reason}"
                )
            }
        }
    }
}

impl Error for ParseSpcError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ParseSpcError::Io(e) => Some(e),
            ParseSpcError::Malformed { .. } => None,
        }
    }
}

impl From<io::Error> for ParseSpcError {
    fn from(e: io::Error) -> Self {
        ParseSpcError::Io(e)
    }
}

/// An incremental SPC record reader: an iterator yielding one parsed
/// [`Request`] per trace record, without materialising the whole file.
///
/// This is the streaming counterpart of [`read_trace`] (which is built on
/// it): blank lines and `#` comments are skipped, and every record goes
/// through the same byte-level parser, so the two agree on every
/// accept/reject decision. Requests are yielded in **file order** with
/// default ids; callers that need a sorted, densely-identified stream (the
/// contract of a `Workload`) must sort and assign ids themselves —
/// `read_trace` does so globally, the chunked `gqos-stream` adapter per
/// chunk.
///
/// Reading allocates nothing per record. Each record is first tried by one
/// forward scan of the reader's buffer that builds its request as it goes.
/// The scan takes only the canonical record `ASU,LBA,Size,Op,Timestamp`
/// ended by `\n` or `\r\n`: `ASU` and `LBA` of 1 to 19 digits, `Size` of
/// 1 to 9, `Op` one of `R`, `r`, `W`, `w`, and `Timestamp` `int[.frac]`
/// with at most 15 digits in all and at most 9 after the point. It
/// declines anything else, a line not whole in the buffer, and a
/// timestamp the clock cannot hold.
///
/// A declined line takes the general path, which gives it the values,
/// errors and line count it would have had without the scan. A line that
/// lies whole in the buffer is parsed in place there; one that straddles
/// the buffer's end is gathered in a spill buffer reused from line to
/// line. Each line then reads exactly as `BufRead::lines` would give it:
///
/// - its `\n` or `\r\n` ending is removed;
/// - it is validated as UTF-8 once; invalid UTF-8 is an
///   [`io::ErrorKind::InvalidData`] error that does not count the line,
///   and reading goes on with the next one;
/// - it and each of its fields are trimmed as by `str::trim`, so Unicode
///   whitespace such as U+000B, U+00A0 or U+3000 pads a field harmlessly.
///
/// Fields are split on the byte offsets of `,`. `LBA` and `Size` take a
/// digits-only fast path, and `Timestamp` Clinger's exact one (at most 15
/// digits as `int[.frac]`); any other text goes to the std parser, so
/// values and error messages are those of `str::parse`.
///
/// Both paths convert a timestamp the same way. With at most 9 fraction
/// digits and below 2^50 ns (about 13 days) it is counted in integer
/// nanoseconds, provably the instant the float route
/// `SimTime::from_secs_f64(m / 10^k)` rounds to; any other takes that
/// float route.
///
/// # Examples
///
/// ```
/// use gqos_trace::spc::Records;
///
/// let trace = "# header\n0,47126,8192,R,0.011413\n0,47134,8192,W,0.024\n";
/// let mut records = Records::new(trace.as_bytes());
/// assert!(records.next().unwrap().is_ok());
/// assert!(records.next().unwrap().is_ok());
/// assert!(records.next().is_none());
/// ```
#[derive(Debug)]
pub struct Records<R: Read> {
    reader: BufReader<R>,
    /// The current line when it straddles the end of `reader`'s buffer.
    spill: Vec<u8>,
    line_no: usize,
}

impl<R: Read> Records<R> {
    /// Creates a reader over `reader`. A `&mut` reference may be passed.
    pub fn new(reader: R) -> Self {
        Records {
            reader: BufReader::new(reader),
            spill: Vec::new(),
            line_no: 0,
        }
    }

    /// The 1-based line number of the most recently yielded record (0
    /// before the first), for error reporting by callers.
    pub fn line_number(&self) -> usize {
        self.line_no
    }
}

impl<R: Read> Iterator for Records<R> {
    type Item = Result<Request, ParseSpcError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            // The same buffer fills, retries and consumes as
            // `BufRead::read_until`, so the underlying reader sees exactly
            // the reads (and surfaces exactly the errors) of `lines()`.
            let available = match self.reader.fill_buf() {
                Ok(available) => available,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Some(Err(ParseSpcError::Io(e))),
            };
            if available.is_empty() {
                return None;
            }
            if let Some((len, request)) = scan(available) {
                self.reader.consume(len);
                self.line_no += 1;
                return Some(Ok(request));
            }
            let item = match available.iter().position(|&b| b == b'\n') {
                Some(end) => {
                    let item = parse_line(&available[..=end], &mut self.line_no);
                    self.reader.consume(end + 1);
                    item
                }
                None => {
                    self.spill.clear();
                    if let Err(e) = self.reader.read_until(b'\n', &mut self.spill) {
                        return Some(Err(ParseSpcError::Io(e)));
                    }
                    parse_line(&self.spill, &mut self.line_no)
                }
            };
            if item.is_some() {
                return item;
            }
        }
    }
}

/// Reads an SPC-format trace into a [`Workload`].
///
/// A `&mut` reference may be passed for `reader`. Blank lines and lines
/// beginning with `#` are skipped. Records with more than five fields keep
/// only the first five (some repository variants append extras).
/// Out-of-order timestamps are sorted globally; for a bounded-memory
/// incremental read, use [`Records`] directly.
///
/// # Errors
///
/// Returns [`ParseSpcError`] on I/O failure or the first malformed record.
///
/// # Examples
///
/// ```
/// use gqos_trace::spc;
///
/// let trace = "0,47126,8192,R,0.011413\n0,47134,8192,W,0.024\n";
/// let w = spc::read_trace(trace.as_bytes())?;
/// assert_eq!(w.len(), 2);
/// # Ok::<(), gqos_trace::spc::ParseSpcError>(())
/// ```
pub fn read_trace<R: Read>(reader: R) -> Result<Workload, ParseSpcError> {
    let requests = Records::new(reader).collect::<Result<Vec<_>, _>>()?;
    Ok(Workload::from_requests(requests))
}

/// The largest timestamp (in seconds) the nanosecond simulation clock can
/// represent; anything larger in a trace is a corrupt record, not a valid
/// 580-year experiment.
const MAX_TIMESTAMP_SECS: f64 = (u64::MAX / 1_000_000_000) as f64;

/// Parses one raw line, terminator included, counting it in `line_no`
/// once it is known to be UTF-8. Returns `None` for a blank or `#` line.
fn parse_line(line: &[u8], line_no: &mut usize) -> Option<Result<Request, ParseSpcError>> {
    let line = match line.strip_suffix(b"\n") {
        Some(line) => line.strip_suffix(b"\r").unwrap_or(line),
        None => line,
    };
    // An ASCII line is UTF-8 as it stands; only others need the full check.
    if !line.is_ascii() && std::str::from_utf8(line).is_err() {
        return Some(Err(ParseSpcError::Io(io::Error::new(
            io::ErrorKind::InvalidData,
            "stream did not contain valid UTF-8",
        ))));
    }
    *line_no += 1;
    let record = trim(line);
    if record.is_empty() || record[0] == b'#' {
        return None;
    }
    Some(parse_record(record, *line_no))
}

/// Parses one trimmed, non-empty, UTF-8 record.
fn parse_record(record: &[u8], line: usize) -> Result<Request, ParseSpcError> {
    let malformed = |column: usize, reason: String| ParseSpcError::Malformed {
        line,
        column,
        reason,
    };
    let mut fields = record.split(|&b| b == b',').map(trim);
    let mut field = |column: usize, name: &str| {
        fields
            .next()
            .filter(|s| !s.is_empty())
            .ok_or_else(|| malformed(column, format!("missing field `{name}`")))
    };

    let _asu = field(1, "asu")?;
    let lba = field(2, "lba")?;
    let lba: u64 = digits(lba, 19)
        .map_or_else(|| std_parse(lba), Ok)
        .map_err(|e| malformed(2, format!("bad LBA: {e}")))?;
    let size = field(3, "size")?;
    let size: u32 = digits(size, 9)
        .map(|v| v as u32)
        .map_or_else(|| std_parse(size), Ok)
        .map_err(|e| malformed(3, format!("bad size: {e}")))?;
    let kind = match field(4, "opcode")? {
        b"R" | b"r" => RequestKind::Read,
        b"W" | b"w" => RequestKind::Write,
        other => return Err(malformed(4, format!("bad opcode `{}`", text(other)))),
    };
    let ts = field(5, "timestamp")?;
    let arrival = match exact_decimal(ts) {
        Some((m, k)) => arrival(m, k),
        None => std_parse(ts)
            .map_err(|e| format!("bad timestamp: {e}"))
            .and_then(seconds),
    }
    .map_err(|reason| malformed(5, reason))?;

    Ok(Request::at(arrival)
        .with_block(LogicalBlock::new(lba))
        .with_bytes(size)
        .with_kind(kind))
}

/// One forward pass over the canonical record at the head of `buf`:
/// `ASU,LBA,Size,Op,Timestamp` ended by `\n` or `\r\n`, where `ASU` and
/// `LBA` are 1 to 19 digits, `Size` 1 to 9, `Op` one of `RrWw`, and
/// `Timestamp` is `int[.frac]` with at most 15 digits in all and at most 9
/// after the point. Returns the record's length, ending included, and its
/// request.
///
/// Any other byte, a line not whole in `buf`, or a timestamp the clock
/// cannot hold declines with `None`, and the general path parses the line
/// instead. A canonical line is ASCII with nothing to trim, so wherever
/// the scan accepts, the general path would build the same request.
fn scan(buf: &[u8]) -> Option<(usize, Request)> {
    let mut at = 0;
    digit_run(buf, &mut at, 0, 19)?;
    comma(buf, &mut at)?;
    let (lba, _) = digit_run(buf, &mut at, 0, 19)?;
    comma(buf, &mut at)?;
    let (size, _) = digit_run(buf, &mut at, 0, 9)?;
    comma(buf, &mut at)?;
    let kind = match buf.get(at)? {
        b'R' | b'r' => RequestKind::Read,
        b'W' | b'w' => RequestKind::Write,
        _ => return None,
    };
    at += 1;
    comma(buf, &mut at)?;
    let (mut m, int_digits) = digit_run(buf, &mut at, 0, 15)?;
    let mut k = 0;
    if buf.get(at) == Some(&b'.') {
        at += 1;
        (m, k) = digit_run(buf, &mut at, m, (15 - int_digits).min(9))?;
    }
    let len = match buf.get(at)? {
        b'\n' => at + 1,
        b'\r' if buf.get(at + 1) == Some(&b'\n') => at + 2,
        _ => return None,
    };
    let request = Request::at(arrival(m, k).ok()?)
        .with_block(LogicalBlock::new(lba))
        .with_bytes(size as u32)
        .with_kind(kind);
    Some((len, request))
}

/// Reads the run of ASCII digits at `buf[*at..]` onto `acc` as further
/// decimal digits. Returns the value and the run's length, or `None` if
/// the run is empty or longer than `max`. The length is checked before
/// each digit is taken, so `acc` grows by at most `max` digits and, for
/// the callers' bounds, never wraps.
#[inline(always)]
fn digit_run(buf: &[u8], at: &mut usize, mut acc: u64, max: usize) -> Option<(u64, usize)> {
    let start = *at;
    while let Some(&b) = buf.get(*at) {
        let digit = b.wrapping_sub(b'0');
        if digit > 9 {
            break;
        }
        if *at - start == max {
            return None;
        }
        acc = acc * 10 + u64::from(digit);
        *at += 1;
    }
    let len = *at - start;
    (len > 0).then_some((acc, len))
}

/// Steps over the `,` at `buf[*at]`, or `None` if it is not there.
#[inline(always)]
fn comma(buf: &[u8], at: &mut usize) -> Option<()> {
    (buf.get(*at) == Some(&b',')).then(|| *at += 1)
}

/// A field or record of a line already checked to be UTF-8, as text.
fn text(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("fields of a UTF-8 line split at ASCII bytes are UTF-8")
}

/// The std parse of a field the fast paths declined: its value, or the
/// error whose message the record's error carries.
#[cold]
#[inline(never)]
fn std_parse<T: std::str::FromStr>(field: &[u8]) -> Result<T, T::Err> {
    text(field).parse()
}

/// `str::trim` on the bytes of UTF-8 text, with the usual ASCII edges
/// handled bytewise. U+000B is whitespace here as in `str::trim` (and
/// unlike `u8::is_ascii_whitespace`); a non-ASCII edge, which may be
/// Unicode whitespace such as U+00A0, defers to `str::trim`.
fn trim(bytes: &[u8]) -> &[u8] {
    // Printable ASCII at both ends, the canonical case: nothing to trim.
    if let (Some(b'!'..=b'~'), Some(b'!'..=b'~')) = (bytes.first(), bytes.last()) {
        return bytes;
    }
    let is_space = |b: u8| b == b' ' || (b'\t'..=b'\r').contains(&b);
    let start = bytes
        .iter()
        .position(|&b| !is_space(b))
        .unwrap_or(bytes.len());
    let end = bytes
        .iter()
        .rposition(|&b| !is_space(b))
        .map_or(start, |i| i + 1);
    let trimmed = &bytes[start..end];
    match (trimmed.first(), trimmed.last()) {
        (Some(first), Some(last)) if !first.is_ascii() || !last.is_ascii() => {
            text(bytes).trim().as_bytes()
        }
        _ => trimmed,
    }
}

/// The value of `field` when it is 1 to `max_digits` ASCII digits, few
/// enough not to overflow a `u64`; `None` (the std fallback) otherwise.
fn digits(field: &[u8], max_digits: usize) -> Option<u64> {
    if field.is_empty() || field.len() > max_digits {
        return None;
    }
    field.iter().try_fold(0u64, |acc, &b| {
        b.is_ascii_digit().then(|| acc * 10 + u64::from(b - b'0'))
    })
}

/// `10^k` for `k <= 15`, each exact in an `f64`.
const POW10: [f64; 16] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15,
];

/// `10^e` for `e <= 9`: `POW10_U64[9 - k]` is the nanoseconds in one unit
/// of the `k`-th digit after the point.
const POW10_U64: [u64; 10] = [
    1,
    10,
    100,
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
];

/// 2^50 ns, about 13 days: below it [`arrival`] counts nanoseconds in
/// integers, with the float route's result.
const EXACT_NANOS: u64 = 1 << 50;

/// The arrival instant of the timestamp `m / 10^k`, the value of a field
/// [`exact_decimal`] read (so `m < 10^15` and `k <= 15`), or the reason
/// the record is malformed.
///
/// When `k <= 9` and `N = m·10^(9−k)` is below 2^50 the instant is `N`
/// ns, with no float arithmetic. That is bit for bit the float route
/// `SimTime::from_secs_f64(m / 10^k)`: with `u = 2^-53`, the quotient
/// `m / 10^k` is correctly rounded (Clinger's case, see
/// [`exact_decimal`]) and `from_secs_f64`'s `·1e9` rounds once more, so
/// its product `x` is `N·(1+e1)(1+e2)` with `|e1|, |e2| <= u`, and
/// `|x − N| <= N·(2u + u²) < 0.25` for `N < 2^50`; `round(x)` is then `N`.
/// The scale is a `checked_mul`, so a product past `u64` takes the float
/// route too, which rejects it as past the clock's end.
fn arrival(m: u64, k: usize) -> Result<SimTime, String> {
    let nanos = 9usize
        .checked_sub(k)
        .and_then(|e| m.checked_mul(POW10_U64[e]))
        .filter(|&n| n < EXACT_NANOS);
    match nanos {
        Some(n) => Ok(SimTime::from_nanos(n)),
        None => seconds(m as f64 / POW10[k]),
    }
}

/// The arrival instant of a timestamp of `ts` seconds, or the reason no
/// clock instant is one.
fn seconds(ts: f64) -> Result<SimTime, String> {
    if !ts.is_finite() || ts < 0.0 {
        return Err(format!("negative or non-finite timestamp {ts}"));
    }
    // Pre-empt the SimTime constructor's panic on unrepresentable instants.
    if ts > MAX_TIMESTAMP_SECS {
        return Err(format!("timestamp {ts} overflows the nanosecond clock"));
    }
    Ok(SimTime::from_secs_f64(ts))
}

/// Clinger's exact case of decimal-to-binary conversion.
///
/// For `int[.frac]` text of at most 15 digits in all, with no sign or
/// exponent, the digits form an integer `m < 10^15 < 2^53` and the scale
/// is `10^k` with `k <= 15`. Both are exact in an `f64`, so the one
/// correctly rounded division `m / 10^k` is the correctly rounded value of
/// the text: bit for bit what `str::parse::<f64>` returns. Returns
/// `(m, k)`, or `None` for any other text, for the std fallback.
fn exact_decimal(field: &[u8]) -> Option<(u64, usize)> {
    // 15 digits and a point at most, which also keeps `m` from overflowing.
    if field.len() > 16 {
        return None;
    }
    let (mut m, mut digits, mut point) = (0u64, 0usize, None);
    for (i, &b) in field.iter().enumerate() {
        match b {
            b'0'..=b'9' => {
                m = m * 10 + u64::from(b - b'0');
                digits += 1;
            }
            b'.' if point.is_none() => point = Some(i),
            _ => return None,
        }
    }
    if digits == 0 || digits > 15 {
        return None;
    }
    let scale = point.map_or(0, |p| field.len() - 1 - p);
    Some((m, scale))
}

/// Writes `workload` in SPC format. All requests are emitted under ASU 0.
///
/// A `&mut` reference may be passed for `writer`.
///
/// # Errors
///
/// Returns any underlying I/O error.
///
/// # Examples
///
/// ```
/// use gqos_trace::{spc, SimTime, Workload};
///
/// let w = Workload::from_arrivals([SimTime::from_millis(5)]);
/// let mut out = Vec::new();
/// spc::write_trace(&w, &mut out)?;
/// let text = String::from_utf8(out).unwrap();
/// assert!(text.starts_with("0,"));
/// # Ok::<(), std::io::Error>(())
/// ```
pub fn write_trace<W: Write>(workload: &Workload, mut writer: W) -> io::Result<()> {
    for r in workload.iter() {
        let op = match r.kind {
            RequestKind::Read => 'R',
            RequestKind::Write => 'W',
        };
        writeln!(
            writer,
            "0,{},{},{},{:.6}",
            r.block.get(),
            r.bytes,
            op,
            r.arrival.as_secs_f64()
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use proptest::prelude::*;

    #[test]
    fn parses_canonical_records() {
        let trace = "0,47126,8192,R,0.011413\n1,100,4096,w,1.5\n";
        let w = read_trace(trace.as_bytes()).expect("valid trace");
        assert_eq!(w.len(), 2);
        let r0 = &w.requests()[0];
        assert_eq!(r0.block, LogicalBlock::new(47126));
        assert_eq!(r0.bytes, 8192);
        assert_eq!(r0.kind, RequestKind::Read);
        assert_eq!(r0.arrival, SimTime::from_secs_f64(0.011413));
        assert_eq!(w.requests()[1].kind, RequestKind::Write);
    }

    #[test]
    fn skips_blank_lines_and_comments() {
        let trace = "# header comment\n\n0,1,512,R,0.0\n   \n0,2,512,R,1.0\n";
        let w = read_trace(trace.as_bytes()).expect("valid trace");
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn tolerates_extra_fields_and_whitespace() {
        let trace = "0, 10, 8192 , R , 2.0, extra, fields\n";
        let w = read_trace(trace.as_bytes()).expect("valid trace");
        assert_eq!(w.len(), 1);
        assert_eq!(w.requests()[0].arrival, SimTime::from_secs(2));
    }

    #[test]
    fn sorts_out_of_order_timestamps() {
        let trace = "0,1,512,R,5.0\n0,2,512,R,1.0\n";
        let w = read_trace(trace.as_bytes()).expect("valid trace");
        assert_eq!(w.first_arrival(), Some(SimTime::from_secs(1)));
    }

    #[test]
    fn rejects_bad_opcode_with_line_and_column() {
        let trace = "0,1,512,R,0.0\n0,1,512,X,1.0\n";
        let err = read_trace(trace.as_bytes()).unwrap_err();
        match err {
            ParseSpcError::Malformed {
                line,
                column,
                ref reason,
            } => {
                assert_eq!(line, 2);
                assert_eq!(column, 4);
                assert!(reason.contains("opcode"), "{reason}");
            }
            other => panic!("unexpected error {other}"),
        }
        assert!(err.to_string().contains("line 2, field 4"));
    }

    #[test]
    fn rejects_unrepresentable_timestamp_instead_of_panicking() {
        // Finite but beyond what the nanosecond u64 clock can hold: must be
        // a parse error, not an assertion failure inside SimTime.
        let err = read_trace("0,1,512,R,1e300\n".as_bytes()).unwrap_err();
        match err {
            ParseSpcError::Malformed {
                column, ref reason, ..
            } => {
                assert_eq!(column, 5);
                assert!(reason.contains("overflows"), "{reason}");
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn rejects_nan_timestamp() {
        let err = read_trace("0,1,512,R,NaN\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("timestamp"), "{err}");
    }

    #[test]
    fn rejects_missing_fields() {
        let err = read_trace("0,1,512\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("missing field"));
    }

    #[test]
    fn rejects_negative_timestamp() {
        let err = read_trace("0,1,512,R,-3\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("timestamp"));
    }

    #[test]
    fn rejects_unparsable_numbers() {
        assert!(read_trace("0,abc,512,R,0\n".as_bytes()).is_err());
        assert!(read_trace("0,1,xyz,R,0\n".as_bytes()).is_err());
        assert!(read_trace("0,1,512,R,zzz\n".as_bytes()).is_err());
    }

    #[test]
    fn round_trip_preserves_workload() {
        let original = read_trace("0,5,4096,W,0.25\n0,9,8192,R,1.75\n".as_bytes()).unwrap();
        let mut bytes = Vec::new();
        write_trace(&original, &mut bytes).unwrap();
        let reparsed = read_trace(bytes.as_slice()).unwrap();
        assert_eq!(original, reparsed);
    }

    #[test]
    fn incremental_reader_agrees_with_read_trace() {
        let trace = "# hdr\n0,5,4096,W,0.25\n\n0,9,8192,R,0.10\n0,1,512,r,0.50\n";
        let streamed: Vec<Request> = Records::new(trace.as_bytes())
            .collect::<Result<_, _>>()
            .expect("valid trace");
        // File order, default ids.
        assert_eq!(streamed.len(), 3);
        assert_eq!(streamed[0].arrival, SimTime::from_secs_f64(0.25));
        assert_eq!(streamed[1].arrival, SimTime::from_secs_f64(0.10));
        // read_trace = Records + global sort + dense ids.
        let whole = read_trace(trace.as_bytes()).expect("valid trace");
        let mut sorted = streamed.clone();
        sorted.sort_by_key(|r| r.arrival);
        let resorted: Vec<Request> = sorted
            .into_iter()
            .enumerate()
            .map(|(i, r)| r.with_id(crate::request::RequestId::new(i as u64)))
            .collect();
        assert_eq!(whole.requests(), resorted.as_slice());
    }

    #[test]
    fn incremental_reader_reports_error_line() {
        let mut records = Records::new("0,1,512,R,0.0\n0,1,512,X,1.0\n".as_bytes());
        assert!(records.next().unwrap().is_ok());
        assert_eq!(records.line_number(), 1);
        let err = records.next().unwrap().unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn empty_input_is_empty_workload() {
        let w = read_trace("".as_bytes()).unwrap();
        assert!(w.is_empty());
        assert_eq!(w.span(), SimDuration::ZERO);
    }

    #[test]
    fn invalid_utf8_is_an_invalid_data_io_error() {
        let mut records = Records::new(&b"0,1,512,R,0.0\n0,\xff,512,R,1.0\n0,2,512,W,2.0\n"[..]);
        assert!(records.next().unwrap().is_ok());
        match records.next().unwrap() {
            Err(ParseSpcError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::InvalidData),
            other => panic!("expected an InvalidData i/o error, got {other:?}"),
        }
        // The bad line is consumed but not counted; reading goes on.
        assert_eq!(records.line_number(), 1);
        assert!(records.next().unwrap().is_ok());
        assert_eq!(records.line_number(), 2);
        assert!(records.next().is_none());
    }

    #[test]
    fn crlf_input_parses_like_lf() {
        let lf = "# hdr\n0,5,4096,W,0.25\n\n0,9,8192,R,0.10\n";
        let crlf = lf.replace('\n', "\r\n");
        let a: Vec<Request> = Records::new(lf.as_bytes()).map(Result::unwrap).collect();
        let b: Vec<Request> = Records::new(crlf.as_bytes()).map(Result::unwrap).collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn vertical_tab_padding_is_trimmed() {
        // `str::trim` strips U+000B; `u8::is_ascii_whitespace` would not.
        let w = read_trace("\x0b0,\x0b10\x0b,8192, R\x0b,2.0\x0b\n".as_bytes()).unwrap();
        assert_eq!(w.len(), 1);
        assert_eq!(w.requests()[0].block, LogicalBlock::new(10));
        assert_eq!(w.requests()[0].arrival, SimTime::from_secs(2));
    }

    /// The last whole microsecond the nanosecond clock holds.
    const MAX_MICROS: u64 = u64::MAX / 1_000;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// Timestamps as `write_trace` formats them, at every magnitude up
        /// to the clock's end: the exact path is taken for every one of
        /// at most 15 digits, and the fast and std conversions agree bit
        /// for bit, as do the `SimTime`s the record parser builds.
        #[test]
        fn timestamp_fast_path_is_exact(raw in 0u64..=MAX_MICROS, shift in 0u32..64) {
            let micros = raw >> shift;
            let text = format!("{:.6}", SimTime::from_nanos(micros * 1_000).as_secs_f64());
            let std: f64 = text.parse().unwrap();
            let digits = text.bytes().filter(u8::is_ascii_digit).count();
            match exact_decimal(text.as_bytes()) {
                Some((m, k)) => {
                    prop_assert!(digits <= 15, "{} took the exact path", text);
                    let fast = m as f64 / POW10[k];
                    prop_assert_eq!(fast.to_bits(), std.to_bits(), "{}", text);
                }
                None => prop_assert!(digits > 15, "{} missed the exact path", text),
            }
            let record = format!("0,1,512,R,{text}");
            let parsed = parse_record(record.as_bytes(), 1);
            let scanned = scan(format!("{record}\n").as_bytes());
            if std <= MAX_TIMESTAMP_SECS {
                let parsed = parsed.unwrap();
                prop_assert_eq!(parsed.arrival, SimTime::from_secs_f64(std));
                if let Some((len, request)) = scanned {
                    prop_assert_eq!(len, record.len() + 1);
                    prop_assert_eq!(request, parsed);
                }
            } else {
                prop_assert!(parsed.is_err(), "{} fits no clock", text);
                prop_assert!(scanned.is_none(), "{} was scanned", text);
            }
        }

        /// The integer route of `arrival` is the float route bit for bit,
        /// at every scale and up to the 2^50 ns bound, with the largest
        /// mantissas below it drawn most often.
        #[test]
        fn integer_route_matches_float_route(
            k in 0usize..=9,
            near_bound in any::<bool>(),
            raw in any::<u64>(),
            shift in 0u32..64,
        ) {
            let scale = POW10_U64[9 - k];
            let top = (EXACT_NANOS - 1) / scale;
            let m = if near_bound {
                top - (raw % 4096).min(top)
            } else {
                (raw >> shift) % (top + 1)
            };
            let exact = arrival(m, k).unwrap();
            prop_assert_eq!(exact.as_nanos(), m * scale);
            let float = SimTime::from_secs_f64(m as f64 / POW10[k]);
            prop_assert_eq!(exact, float, "{} / 10^{}", m, k);
        }
    }

    #[test]
    fn scan_takes_canonical_records_only() {
        let take = |line: &str| scan(line.as_bytes()).map(|(len, _)| len);
        assert_eq!(take("0,47126,8192,R,0.011413\n"), Some(24));
        assert_eq!(take("0,47126,8192,w,7\r\nnext"), Some(18));
        assert_eq!(take("0,1,512,R,0.123456789\n"), Some(22));
        for declined in [
            "0,47126,8192,R,0.011413",       // not whole in the buffer
            "0,47126,8192,R,0.011413\r",     // nor here
            "0, 1,512,R,0.5\n",              // padding
            "0,1,512,R,0.5,extra\n",         // a sixth field
            "0,1,512,X,0.5\n",               // opcode
            "0,1,1234567890,R,0.5\n",        // 10-digit size
            "0,1,512,R,0.1234567891\n",      // 10 fraction digits
            "0,1,512,R,1234567890.123456\n", // 16 digits
            "0,1,512,R,1.\n",
            "0,1,512,R,.5\n",
            "0,1,512,R,1e3\n",
            "0,1,512,R,18446744074\n",    // m·10^9 wraps a u64
            "0,1,512,R,99999999999999\n", // past the clock's end
            "00000000000000000000,1,512,R,0\n",
        ] {
            assert_eq!(take(declined), None, "{declined:?}");
        }
        // The general path builds what the scan builds, on both sides of
        // the 2^50 ns bound, and rejects what it declines past the clock.
        for text in ["1125899.906842", "1125899.906843"] {
            let line = format!("0,47126,8192,R,{text}");
            let (_, scanned) = scan(format!("{line}\n").as_bytes()).unwrap();
            assert_eq!(scanned, parse_record(line.as_bytes(), 1).unwrap());
        }
        let (_, below) = scan(b"0,1,512,R,1125899.906842\n").unwrap();
        assert_eq!(below.arrival.as_nanos(), 1_125_899_906_842_000);
        let err = parse_record(b"0,1,512,R,18446744074", 1).unwrap_err();
        assert!(err.to_string().contains("overflows"), "{err}");
    }

    #[test]
    fn sixteen_digit_timestamps_take_the_std_fallback() {
        // 9096268740390149 > 2^53: converting it to f64 and then dividing
        // would round twice and land one ulp below the true value.
        let text = "9096268.740390149";
        assert_eq!(exact_decimal(text.as_bytes()), None);
        assert_eq!(exact_decimal(b"1234567890.123456"), None);
        assert_eq!(
            exact_decimal(b"123456789.012345"),
            Some((123456789012345, 6))
        );
        let std: f64 = text.parse().unwrap();
        assert_ne!((9096268740390149u64 as f64 / 1e9).to_bits(), std.to_bits());
        let record = format!("0,1,512,R,{text}");
        let parsed = parse_record(record.as_bytes(), 1).unwrap();
        assert_eq!(parsed.arrival, SimTime::from_secs_f64(std));
    }

    #[test]
    fn error_source_chain() {
        let err = read_trace("0,1,512,R,bad\n".as_bytes()).unwrap_err();
        assert!(err.source().is_none());
        let io_err = ParseSpcError::from(io::Error::other("boom"));
        assert!(io_err.source().is_some());
    }
}
