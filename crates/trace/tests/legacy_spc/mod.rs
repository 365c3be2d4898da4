//! The line-at-a-time SPC reader that `gqos_trace::spc::Records` replaced,
//! frozen as the differential oracle for the byte-level parser.
//!
//! Every line is a fresh `String` from `BufRead::lines`, split into a
//! `Vec<&str>` and parsed with the std numeric parsers. The production
//! reader must agree with it on every request, every error and every line
//! number; do not optimise this copy.

use std::io::{self, BufRead, BufReader, Read};

use gqos_trace::spc::ParseSpcError;
use gqos_trace::{LogicalBlock, Request, RequestKind, SimTime};

pub struct Records<R: Read> {
    lines: io::Lines<BufReader<R>>,
    line_no: usize,
}

impl<R: Read> Records<R> {
    pub fn new(reader: R) -> Self {
        Records {
            lines: BufReader::new(reader).lines(),
            line_no: 0,
        }
    }

    pub fn line_number(&self) -> usize {
        self.line_no
    }
}

impl<R: Read> Iterator for Records<R> {
    type Item = Result<Request, ParseSpcError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let line = match self.lines.next()? {
                Ok(line) => line,
                Err(e) => return Some(Err(ParseSpcError::Io(e))),
            };
            self.line_no += 1;
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            return Some(parse_record(trimmed, self.line_no));
        }
    }
}

const MAX_TIMESTAMP_SECS: f64 = (u64::MAX / 1_000_000_000) as f64;

fn parse_record(record: &str, line: usize) -> Result<Request, ParseSpcError> {
    let malformed = |column: usize, reason: String| ParseSpcError::Malformed {
        line,
        column,
        reason,
    };
    let fields: Vec<&str> = record.split(',').map(str::trim).collect();
    let field = |column: usize, name: &str| {
        fields
            .get(column - 1)
            .copied()
            .filter(|s| !s.is_empty())
            .ok_or_else(|| malformed(column, format!("missing field `{name}`")))
    };

    let _asu = field(1, "asu")?;
    let lba: u64 = field(2, "lba")?
        .parse()
        .map_err(|e| malformed(2, format!("bad LBA: {e}")))?;
    let size: u32 = field(3, "size")?
        .parse()
        .map_err(|e| malformed(3, format!("bad size: {e}")))?;
    let opcode = field(4, "opcode")?;
    let kind = match opcode {
        "R" | "r" => RequestKind::Read,
        "W" | "w" => RequestKind::Write,
        other => return Err(malformed(4, format!("bad opcode `{other}`"))),
    };
    let ts: f64 = field(5, "timestamp")?
        .parse()
        .map_err(|e| malformed(5, format!("bad timestamp: {e}")))?;
    if !ts.is_finite() || ts < 0.0 {
        return Err(malformed(
            5,
            format!("negative or non-finite timestamp {ts}"),
        ));
    }
    if ts > MAX_TIMESTAMP_SECS {
        return Err(malformed(
            5,
            format!("timestamp {ts} overflows the nanosecond clock"),
        ));
    }

    Ok(Request::at(SimTime::from_secs_f64(ts))
        .with_block(LogicalBlock::new(lba))
        .with_bytes(size)
        .with_kind(kind))
}
