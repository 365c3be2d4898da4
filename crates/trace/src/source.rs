//! Arrival sources: chunked, bounded-memory request streams.
//!
//! An [`ArrivalStream`] yields the arrival process in fixed-capacity sorted
//! chunks instead of one materialised `Workload` vector, so ingestion
//! memory is bounded by the chunk size regardless of trace length. Two
//! adapters cover the repo's sources:
//!
//! - [`WorkloadStream`] — an in-memory [`Workload`] re-served in chunks
//!   (the golden reference: ids and order are exactly the workload's);
//! - [`SpcStream`] — an incremental SPC file reader built on
//!   [`spc::Records`](crate::spc::Records), never holding more than one
//!   chunk of parsed records and allocating nothing per record.
//!
//! # Chunk contract
//!
//! Every adapter upholds, and every consumer may assume:
//!
//! 1. chunks are sorted by arrival time (stable within equal timestamps);
//! 2. the first arrival of chunk `k+1` is `>=` the last arrival of chunk
//!    `k` (violations surface as [`StreamError::OutOfOrder`] — the
//!    bounded-reorder contract: reordering beyond one chunk cannot be
//!    repaired in bounded memory);
//! 3. request ids are dense and sequential across the whole stream, in
//!    exactly the order the requests are yielded — the same ids
//!    [`Workload::from_requests`] would have assigned to the full trace.
//!
//! Together these make a chunked run reproduce the offline run's
//! per-request identity bit-for-bit.

use std::error::Error;
use std::fmt;
use std::io::Read;

use crate::spc::{ParseSpcError, Records};
use crate::{Request, RequestId, SimTime, Workload};

/// Default chunk capacity: large enough to amortise per-chunk overheads,
/// small enough that a resident chunk is a few hundred KiB.
pub const DEFAULT_CHUNK: usize = 4096;

/// An error produced while pulling the next chunk from a stream.
#[derive(Debug)]
pub enum StreamError {
    /// The underlying SPC reader rejected a record or failed on I/O.
    Parse(ParseSpcError),
    /// An arrival in a later chunk precedes the previous chunk's maximum:
    /// the source is reordered beyond the chunk horizon and cannot be
    /// repaired in bounded memory.
    OutOfOrder {
        /// 0-based index of the offending chunk.
        chunk: usize,
        /// Latest arrival seen in earlier chunks.
        prev: SimTime,
        /// The violating (earlier) arrival in the current chunk.
        next: SimTime,
    },
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Parse(e) => write!(f, "arrival stream parse failure: {e}"),
            StreamError::OutOfOrder { chunk, prev, next } => write!(
                f,
                "arrival stream reordered beyond the chunk horizon: chunk {chunk} \
                 starts at {next}, before the previous chunk's last arrival {prev}"
            ),
        }
    }
}

impl Error for StreamError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StreamError::Parse(e) => Some(e),
            StreamError::OutOfOrder { .. } => None,
        }
    }
}

impl From<ParseSpcError> for StreamError {
    fn from(e: ParseSpcError) -> Self {
        StreamError::Parse(e)
    }
}

/// A source of arrivals in fixed-capacity sorted chunks.
///
/// Every implementation upholds the chunk contract: chunks are sorted by
/// arrival time, never start before the previous chunk ended (else
/// [`StreamError::OutOfOrder`]), and carry dense sequential request ids
/// across the whole stream.
pub trait ArrivalStream {
    /// The configured maximum chunk length.
    fn chunk_capacity(&self) -> usize;

    /// Clears `buf` and fills it with the next chunk (at most
    /// [`chunk_capacity`](ArrivalStream::chunk_capacity) requests),
    /// returning the number of requests written. Zero means the stream is
    /// exhausted; subsequent calls keep returning zero.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError`] on a malformed source record or an
    /// out-of-order arrival beyond the chunk horizon.
    fn next_chunk(&mut self, buf: &mut Vec<Request>) -> Result<usize, StreamError>;
}

/// Tail logic for id-assigning adapters: stable-sort the chunk,
/// check the cross-chunk ordering contract, assign dense sequential ids.
fn seal_chunk(
    buf: &mut [Request],
    next_id: &mut u64,
    last_arrival: &mut Option<SimTime>,
    chunk_index: usize,
) -> Result<(), StreamError> {
    buf.sort_by_key(|r| r.arrival);
    if let (Some(prev), Some(first)) = (*last_arrival, buf.first().map(|r| r.arrival)) {
        if first < prev {
            return Err(StreamError::OutOfOrder {
                chunk: chunk_index,
                prev,
                next: first,
            });
        }
    }
    for r in buf.iter_mut() {
        r.id = RequestId::new(*next_id);
        *next_id += 1;
    }
    if let Some(last) = buf.last() {
        *last_arrival = Some(last.arrival);
    }
    Ok(())
}

/// An in-memory [`Workload`] served in chunks.
///
/// The reference adapter: ids and ordering are exactly the workload's own
/// (already sorted with dense ids), so a chunked run over this stream must
/// be bit-identical to the offline run over the same workload.
///
/// # Examples
///
/// ```
/// use gqos_trace::{ArrivalStream, SimTime, Workload, WorkloadStream};
///
/// let w = Workload::from_arrivals((0..10).map(SimTime::from_millis));
/// let mut stream = WorkloadStream::new(w, 4);
/// let mut buf = Vec::new();
/// let mut total = 0;
/// while stream.next_chunk(&mut buf).unwrap() > 0 {
///     total += buf.len();
/// }
/// assert_eq!(total, 10);
/// ```
#[derive(Clone, Debug)]
pub struct WorkloadStream {
    workload: Workload,
    chunk: usize,
    next: usize,
}

impl WorkloadStream {
    /// Creates a stream over `workload` yielding chunks of at most `chunk`
    /// requests.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is zero.
    pub fn new(workload: Workload, chunk: usize) -> Self {
        assert!(chunk > 0, "chunk capacity must be positive");
        WorkloadStream {
            workload,
            chunk,
            next: 0,
        }
    }
}

impl ArrivalStream for WorkloadStream {
    fn chunk_capacity(&self) -> usize {
        self.chunk
    }

    fn next_chunk(&mut self, buf: &mut Vec<Request>) -> Result<usize, StreamError> {
        buf.clear();
        let requests = self.workload.requests();
        let end = (self.next + self.chunk).min(requests.len());
        buf.extend_from_slice(&requests[self.next..end]);
        let n = end - self.next;
        self.next = end;
        Ok(n)
    }
}

/// An incremental SPC trace reader yielding sorted chunks.
///
/// Fills each chunk from [`spc::Records`](crate::spc::Records) (the same
/// byte-level parser as `spc::read_trace`, which parses lines in place in
/// its read buffer and allocates nothing per record), sorts the chunk, and
/// assigns dense sequential ids. Sources reordered within one chunk are
/// repaired; reordering across the chunk horizon is a
/// [`StreamError::OutOfOrder`].
///
/// # Examples
///
/// ```
/// use gqos_trace::{ArrivalStream, SpcStream};
///
/// let trace = "0,1,512,R,0.002\n0,2,512,R,0.001\n0,3,512,W,0.005\n";
/// let mut stream = SpcStream::new(trace.as_bytes(), 2);
/// let mut buf = Vec::new();
/// assert_eq!(stream.next_chunk(&mut buf).unwrap(), 2);
/// // The first chunk was sorted: 0.001 before 0.002.
/// assert!(buf[0].arrival < buf[1].arrival);
/// ```
#[derive(Debug)]
pub struct SpcStream<R: Read> {
    records: Records<R>,
    chunk: usize,
    chunks_read: usize,
    next_id: u64,
    last_arrival: Option<SimTime>,
    exhausted: bool,
}

impl<R: Read> SpcStream<R> {
    /// Creates a stream reading SPC records from `reader` in chunks of at
    /// most `chunk` requests.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is zero.
    pub fn new(reader: R, chunk: usize) -> Self {
        assert!(chunk > 0, "chunk capacity must be positive");
        SpcStream {
            records: Records::new(reader),
            chunk,
            chunks_read: 0,
            next_id: 0,
            last_arrival: None,
            exhausted: false,
        }
    }
}

impl<R: Read> ArrivalStream for SpcStream<R> {
    fn chunk_capacity(&self) -> usize {
        self.chunk
    }

    fn next_chunk(&mut self, buf: &mut Vec<Request>) -> Result<usize, StreamError> {
        buf.clear();
        if self.exhausted {
            return Ok(0);
        }
        while buf.len() < self.chunk {
            match self.records.next() {
                Some(Ok(r)) => buf.push(r),
                Some(Err(e)) => return Err(e.into()),
                None => {
                    self.exhausted = true;
                    break;
                }
            }
        }
        if buf.is_empty() {
            return Ok(0);
        }
        seal_chunk(
            buf,
            &mut self.next_id,
            &mut self.last_arrival,
            self.chunks_read,
        )?;
        self.chunks_read += 1;
        Ok(buf.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    fn drain<A: ArrivalStream>(mut stream: A) -> Vec<Request> {
        let mut buf = Vec::new();
        let mut all = Vec::new();
        loop {
            let n = stream.next_chunk(&mut buf).expect("stream ok");
            if n == 0 {
                break;
            }
            all.extend_from_slice(&buf);
        }
        all
    }

    #[test]
    fn workload_stream_reproduces_the_workload() {
        let w = Workload::from_arrivals((0..25).map(|i| ms(i * 3)));
        for chunk in [1usize, 4, 7, 25, 100] {
            let all = drain(WorkloadStream::new(w.clone(), chunk));
            assert_eq!(all.as_slice(), w.requests(), "chunk {chunk}");
        }
    }

    #[test]
    fn workload_stream_exhaustion_is_sticky() {
        let w = Workload::from_arrivals([ms(1)]);
        let mut s = WorkloadStream::new(w, 8);
        let mut buf = Vec::new();
        assert_eq!(s.next_chunk(&mut buf).unwrap(), 1);
        assert_eq!(s.next_chunk(&mut buf).unwrap(), 0);
        assert_eq!(s.next_chunk(&mut buf).unwrap(), 0);
    }

    #[test]
    fn spc_stream_matches_read_trace_ids_and_order() {
        // In-chunk disorder is sorted away; ids match the offline reader's
        // global sort because the disorder never crosses a chunk boundary.
        let trace = "0,1,512,R,0.002\n0,2,512,R,0.001\n0,3,512,W,0.005\n0,4,512,R,0.004\n";
        let offline = crate::spc::read_trace(trace.as_bytes()).unwrap();
        let streamed = drain(SpcStream::new(trace.as_bytes(), 2));
        assert_eq!(streamed.as_slice(), offline.requests());
    }

    #[test]
    fn spc_stream_rejects_cross_chunk_disorder() {
        // 5.0 then 1.0 with chunk size 1: the disorder crosses the chunk
        // horizon and must surface as a typed error.
        let trace = "0,1,512,R,5.0\n0,2,512,R,1.0\n";
        let mut s = SpcStream::new(trace.as_bytes(), 1);
        let mut buf = Vec::new();
        assert_eq!(s.next_chunk(&mut buf).unwrap(), 1);
        let err = s.next_chunk(&mut buf).unwrap_err();
        assert!(
            matches!(err, StreamError::OutOfOrder { chunk: 1, .. }),
            "{err}"
        );
        assert!(err.to_string().contains("chunk horizon"));
    }

    #[test]
    fn spc_stream_propagates_parse_errors() {
        let trace = "0,1,512,R,0.0\n0,1,512,X,1.0\n";
        let mut s = SpcStream::new(trace.as_bytes(), 16);
        let err = s.next_chunk(&mut Vec::new()).unwrap_err();
        assert!(matches!(err, StreamError::Parse(_)));
        assert!(err.source().is_some());
    }

    #[test]
    #[should_panic(expected = "chunk capacity must be positive")]
    fn zero_chunk_rejected() {
        let _ = WorkloadStream::new(Workload::new(), 0);
    }
}
