//! The SPC parser must never panic: any byte soup — malformed fields,
//! truncated records, NaN/huge/negative numbers, stray separators — yields
//! either a parsed workload or a structured [`ParseSpcError`], with
//! line/field context on malformed records. The byte-level reader must
//! also agree, item for item, with the frozen line-at-a-time oracle in
//! `legacy_spc`.

mod legacy_spc;

use std::io::{self, Read};

use gqos_trace::spc::{self, ParseSpcError, Records};
use proptest::prelude::*;

/// Fragments biased toward the parser's decision points: numbers around
/// every representability edge and each fast path's limits, opcodes of
/// both cases, junk, separators, Unicode padding, and fields long enough
/// to straddle the reader's 8 KiB buffer.
fn fragment() -> impl Strategy<Value = String> {
    prop_oneof![
        exotic(),
        Just("0".to_string()),
        Just("47126".to_string()),
        Just("8192".to_string()),
        Just("R".to_string()),
        Just("w".to_string()),
        Just("X".to_string()),
        Just("0.011413".to_string()),
        Just("-3".to_string()),
        Just("NaN".to_string()),
        Just("inf".to_string()),
        Just("-inf".to_string()),
        Just("1e300".to_string()),
        Just("18446744073".to_string()), // ≈ the clock's last second
        Just("18446744074".to_string()), // just past it
        Just("999999999999999999999".to_string()),
        Just(String::new()),
        Just(" ".to_string()),
        Just("#".to_string()),
        junk(),
        any::<f64>().prop_map(|v| v.to_string()),
        any::<u64>().prop_map(|v| v.to_string()),
    ]
}

/// What the byte-level parser handles apart from the std one: whitespace
/// that `str::trim` strips but `u8::is_ascii_whitespace` misses, Unicode
/// padding, a non-ASCII ASU, a lone `\r`, timestamps on both sides of
/// the 15-digit exact path, signs, exponents, bare points, a size above
/// `u32::MAX`, and long runs.
fn exotic() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("\x0b".to_string()),
        Just("\x0b8192\x0b".to_string()),
        Just("\u{a0}R\u{a0}".to_string()),
        Just("\u{3000}0.5\u{3000}".to_string()),
        Just("\u{3000}".to_string()),
        Just("Äsu".to_string()),
        Just("\r".to_string()),
        Just("123456789.012345".to_string()), // 15 digits: exact path
        Just("1234567890.123456".to_string()), // 16 digits: std fallback
        Just("9096268.740390149".to_string()), // 16 digits, above 2^53
        Just("12345678901.123456".to_string()), // 17 digits
        Just("000000000000001.5".to_string()),
        Just("1e3".to_string()),
        Just("2.5E-3".to_string()),
        Just("+1.5".to_string()),
        Just("+7".to_string()),
        Just("1.".to_string()),
        Just(".5".to_string()),
        Just(".".to_string()),
        Just("1.2.3".to_string()),
        Just("-0".to_string()),
        Just("4294967295".to_string()),
        Just("4294967296".to_string()),           // u32::MAX + 1
        Just("18446744073709551616".to_string()), // u64::MAX + 1
        Just("00000000000000000000042".to_string()),
        (8150usize..8250).prop_map(|n| " ".repeat(n)),
        (8150usize..8250).prop_map(|n| "7".repeat(n)),
        (0u64..10_000_000_000_000_000).prop_map(|v| format!(
            "{}.{:06}",
            v / 1_000_000,
            v % 1_000_000
        )),
    ]
}

/// Short strings over a hostile alphabet (the vendored proptest has no
/// regex strategies).
fn junk() -> impl Strategy<Value = String> {
    const ALPHABET: &[char] = &['a', 'z', '0', '9', '.', ',', '-', ' ', 'e', '+'];
    prop::collection::vec(0usize..ALPHABET.len(), 0..8)
        .prop_map(|indices| indices.into_iter().map(|i| ALPHABET[i]).collect())
}

/// A line is a few fragments joined by commas (sometimes the wrong number
/// of fields, sometimes trailing or leading separators).
fn line() -> impl Strategy<Value = String> {
    prop::collection::vec(fragment(), 0..8).prop_map(|parts| parts.join(","))
}

/// Bytes that are not UTF-8: a stray continuation byte, truncated two-
/// and three-byte sequences, and an encoded surrogate.
fn invalid_utf8() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        Just(vec![0xff]),
        Just(vec![0x80]),
        Just(vec![0xc3]),
        Just(vec![0xe3, 0x80]),
        Just(vec![0xed, 0xa0, 0x80]),
    ]
}

/// An integer field: the fast path's digit limits, the std fallback's
/// overflow edges for `u32` and `u64`, signs and padding.
fn integer() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("4294967295".to_string()),
        Just("4294967296".to_string()),
        Just("999999999".to_string()),
        Just("9999999999999999999".to_string()),
        Just("18446744073709551615".to_string()),
        Just("18446744073709551616".to_string()),
        Just("+7".to_string()),
        Just("-1".to_string()),
        Just("\x0b8192\u{a0}".to_string()),
        any::<u32>().prop_map(|v| v.to_string()),
        any::<u64>().prop_map(|v| v.to_string()),
        fragment(),
    ]
}

/// 2^50 ns, the bound below which a timestamp of at most 9 fraction
/// digits converts to nanoseconds in integers.
const EXACT_NANOS: u64 = 1 << 50;

/// `nanos` as seconds with `places` (1 to 9) fraction digits, rounded to
/// nearest (ties up) in integers.
fn seconds_text(nanos: u64, places: u32) -> String {
    let unit = 10u64.pow(9 - places);
    let ticks = nanos / unit + u64::from(nanos % unit >= unit.div_ceil(2));
    let per_sec = 10u64.pow(places);
    let width = places as usize;
    format!("{}.{:0width$}", ticks / per_sec, ticks % per_sec)
}

/// Timestamps at the edges of the integer-nanosecond conversion: 2^50 ns,
/// its neighbours and its surroundings with 6 and with 9 fraction digits,
/// 15-digit instants past 2^50 ns (where the float route no longer lands
/// on whole nanoseconds), 9- and 10-digit fractions, and integers whose
/// `×10^9` wraps a `u64`.
fn exact_edge() -> impl Strategy<Value = String> {
    let places = || prop_oneof![Just(6u32), Just(9u32)];
    prop_oneof![
        (EXACT_NANOS - 1..=EXACT_NANOS + 1, places()).prop_map(|(n, p)| seconds_text(n, p)),
        (EXACT_NANOS - 1_000_000..EXACT_NANOS + 1_000_000, places())
            .prop_map(|(n, p)| seconds_text(n, p)),
        (EXACT_NANOS / 1_000..1_000_000_000_000_000)
            .prop_map(|micros| seconds_text(micros * 1_000, 6)),
        (any::<u64>(), 0u32..64).prop_map(|(v, shift)| seconds_text((v >> shift) % EXACT_NANOS, 9)),
        (0u64..100_000, 0u64..10_000_000_000).prop_map(|(int, frac)| format!("{int}.{frac:010}")),
        Just("0.123456789".to_string()),
        Just("0.1234567891".to_string()),
        Just("123456.123456789".to_string()),
        Just("18446744074".to_string()),
        Just("99999999999999".to_string()),
        Just("18446744073709551".to_string()),
    ]
}

/// A line the one-pass scan takes whole when its value fits: five fields
/// of plain digits, an opcode of `RrWw` and an `int[.frac]` timestamp.
fn canonical() -> impl Strategy<Value = Vec<u8>> {
    let op = prop_oneof![Just('R'), Just('r'), Just('W'), Just('w')];
    let ts = prop_oneof![timestamp(), exact_edge()];
    (any::<u64>(), any::<u64>(), 0u32..1_000_000_000, op, ts).prop_map(
        |(asu, lba, size, op, ts)| {
            format!("{},{},{size},{op},{ts}", asu % 10, lba >> (asu % 64)).into_bytes()
        },
    )
}

/// A timestamp field: `write_trace`-style values, both sides of the exact
/// path, the clock's edge, and whatever else `str::parse` accepts.
fn timestamp() -> impl Strategy<Value = String> {
    prop_oneof![
        (0u64..20_000_000_000_000_000).prop_map(|v| format!(
            "{}.{:06}",
            v / 1_000_000,
            v % 1_000_000
        )),
        exact_edge(),
        Just("9096268.740390149".to_string()),
        Just("18446744073.709551".to_string()),
        Just("18446744074".to_string()),
        Just("1e3".to_string()),
        Just("+1.5".to_string()),
        Just("inf".to_string()),
        Just("-0".to_string()),
        fragment(),
    ]
}

/// A line that reaches every field: five typed fields, sometimes more.
fn record() -> impl Strategy<Value = Vec<u8>> {
    let opcode = prop_oneof![Just("R".to_string()), Just(" w ".to_string()), fragment()];
    let extra = prop::collection::vec(fragment(), 0..2);
    (fragment(), integer(), integer(), opcode, timestamp(), extra).prop_map(
        |(asu, lba, size, opcode, ts, extra)| {
            let mut fields = vec![asu, lba, size, opcode, ts];
            fields.extend(extra);
            fields.join(",").into_bytes()
        },
    )
}

/// A raw trace: lines of typed records or of (mostly UTF-8) fragment soup,
/// each ended by `\n`, `\r\n` or a lone `\r`, the last one sometimes by
/// nothing at all.
fn document() -> impl Strategy<Value = Vec<u8>> {
    let piece = prop_oneof![
        fragment().prop_map(String::into_bytes),
        fragment().prop_map(String::into_bytes),
        fragment().prop_map(String::into_bytes),
        invalid_utf8(),
    ];
    let soup = prop::collection::vec(piece, 0..7).prop_map(|pieces| pieces.join(&b','));
    let line = prop_oneof![soup, record(), canonical()];
    let ending = prop_oneof![Just("\n"), Just("\n"), Just("\r\n"), Just("\r")];
    let lines = prop::collection::vec((line, ending), 0..14);
    (lines, any::<bool>()).prop_map(|(lines, unterminated)| {
        let mut doc = Vec::new();
        let count = lines.len();
        for (i, (line, ending)) in lines.into_iter().enumerate() {
            doc.extend_from_slice(&line);
            if !(unterminated && i + 1 == count) {
                doc.extend_from_slice(ending.as_bytes());
            }
        }
        doc
    })
}

/// A reader serving `data` in reads of `sizes` (cycled), failing read
/// number `fail_at` once with `fail`: short reads make lines straddle the
/// buffer end anywhere, and the failure exercises the error path.
#[derive(Clone)]
struct Flaky {
    data: Vec<u8>,
    pos: usize,
    sizes: Vec<usize>,
    reads: usize,
    fail_at: usize,
    fail: io::ErrorKind,
}

impl Read for Flaky {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let read = self.reads;
        self.reads += 1;
        if read == self.fail_at {
            return Err(io::Error::new(self.fail, "injected failure"));
        }
        let rest = &self.data[self.pos..];
        let n = self.sizes[read % self.sizes.len()]
            .min(buf.len())
            .min(rest.len());
        buf[..n].copy_from_slice(&rest[..n]);
        self.pos += n;
        Ok(n)
    }
}

fn reader() -> impl Strategy<Value = (Vec<usize>, usize, io::ErrorKind)> {
    let sizes = prop_oneof![
        Just(vec![usize::MAX]),
        prop::collection::vec(1usize..48, 1..4),
        prop::collection::vec(1000usize..9000, 1..3),
    ];
    let fail = prop_oneof![
        Just(io::ErrorKind::Interrupted),
        Just(io::ErrorKind::Other),
        Just(io::ErrorKind::UnexpectedEof),
    ];
    (sizes, 0usize..40, fail)
}

/// Everything an item carries that a caller can observe: the request bit
/// for bit (its arrival in nanoseconds, which its `Debug` rounds to the
/// microsecond), or the error's variant, position, reason and i/o kind.
fn observe(item: Option<Result<gqos_trace::Request, ParseSpcError>>) -> String {
    match item {
        None => "end".to_string(),
        Some(Ok(request)) => format!("{request:?} at {} ns", request.arrival.as_nanos()),
        Some(Err(ParseSpcError::Io(e))) => format!("Io({:?}: {e})", e.kind()),
        Some(Err(ParseSpcError::Malformed {
            line,
            column,
            reason,
        })) => format!("Malformed(line {line}, column {column}: {reason})"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The byte-level reader and the frozen `lines()` oracle yield the
    /// same items and line numbers on any bytes, any read sizes and an
    /// injected read failure.
    #[test]
    fn reader_matches_line_oracle(doc in document(), (sizes, fail_at, fail) in reader()) {
        let source = Flaky { data: doc, pos: 0, sizes, reads: 0, fail_at, fail };
        let mut new = Records::new(source.clone());
        let mut old = legacy_spc::Records::new(source);
        for item in 0.. {
            let (a, b) = (observe(new.next()), observe(old.next()));
            prop_assert_eq!(&a, &b, "item {}", item);
            prop_assert_eq!(new.line_number(), old.line_number(), "after item {}", item);
            if a == "end" {
                break;
            }
        }
    }

    /// Parsing arbitrary structured-ish lines never panics, and every
    /// malformed error carries usable context.
    #[test]
    fn parser_never_panics_on_adversarial_lines(
        lines in prop::collection::vec(line(), 0..12),
    ) {
        let input = lines.join("\n");
        match spc::read_trace(input.as_bytes()) {
            Ok(workload) => {
                // Whatever parsed must be internally consistent.
                prop_assert!(workload.len() <= lines.len());
            }
            Err(ParseSpcError::Malformed { line, column, reason }) => {
                prop_assert!(line >= 1 && line <= lines.len());
                prop_assert!((1..=5).contains(&column), "column {column}");
                prop_assert!(!reason.is_empty());
            }
            Err(ParseSpcError::Io(_)) => {
                // Reading from a byte slice cannot fail, but the arm must
                // stay total.
            }
        }
    }

    /// Truncating a valid trace at an arbitrary byte never panics.
    #[test]
    fn truncation_never_panics(cut in 0usize..120) {
        let full = "0,47126,8192,R,0.011413\n0,47134,8192,W,0.024\n0,9,512,r,1.5\n";
        let cut = cut.min(full.len());
        let _ = spc::read_trace(full.as_bytes()[..cut].as_ref());
    }

    /// Every non-negative finite timestamp within clock range round-trips
    /// through write + read without panicking.
    #[test]
    fn representable_timestamps_parse(ts in 0.0f64..1.0e9) {
        let text = format!("0,1,512,R,{ts}\n");
        let parsed = spc::read_trace(text.as_bytes());
        prop_assert!(parsed.is_ok(), "rejected valid timestamp {ts}");
    }
}
