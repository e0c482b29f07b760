//! Compact binary wire format for feedback reports.
//!
//! The paper's clients transmit counter vectors over the network (§2.5);
//! JSON lines are convenient for inspection but cost ~4 bytes per mostly-
//! zero counter.  This codec is the transmission format proper: a stream
//! begins with a fixed header identifying the codec version and the
//! *counter layout* of the instrumented binary that produced the reports,
//! followed by length-prefixed report frames with varint-packed counters.
//!
//! ```text
//! stream  := magic "CBIR" | version u8 | layout_hash u64 LE | counters varint | frame*
//! frame   := len varint | payload                  (len = payload byte count)
//! payload := run_id varint | label u8 (0|1) | counter varint × counters
//! ```
//!
//! The layout hash (see `SiteTable::layout_hash` in `cbi-instrument`)
//! fingerprints the site table, so a server rejects reports from a
//! mismatched instrumented binary at the frame boundary — with a typed
//! [`WireError::LayoutHashMismatch`] — instead of deep inside an analysis.
//! Varints are LEB128: 7 value bits per byte, high bit set on continuation.

use crate::collector::Collector;
use crate::report::{Label, Report};
use std::error::Error;
use std::fmt;
use std::io::{Read, Write};

/// Stream magic: the first four bytes of every report stream.
pub const MAGIC: [u8; 4] = *b"CBIR";

/// Current wire-format version.
pub const VERSION: u8 = 1;

/// The fixed header that opens every report stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamHeader {
    /// Codec version (currently [`VERSION`]).
    pub version: u8,
    /// Fingerprint of the producing binary's counter layout.
    pub layout_hash: u64,
    /// Counters per report.
    pub counters: usize,
}

/// Error from encoding or decoding the binary wire format.
#[derive(Debug)]
pub enum WireError {
    /// An underlying I/O error.
    Io(std::io::Error),
    /// The stream did not start with the `CBIR` magic.
    BadMagic([u8; 4]),
    /// The stream's version byte is not one this codec understands.
    UnsupportedVersion(u8),
    /// The stream's layout hash does not match the expected binary.
    LayoutHashMismatch {
        /// Hash of the layout the receiver expects.
        expected: u64,
        /// Hash carried by the stream header.
        got: u64,
    },
    /// The stream's counter count does not match the expected layout.
    CounterCountMismatch {
        /// Expected counters per report.
        expected: usize,
        /// Counters per report declared by the stream.
        got: usize,
    },
    /// The stream ended in the middle of a header or frame.
    Truncated(&'static str),
    /// A label byte was neither 0 (success) nor 1 (failure).
    BadLabel(u8),
    /// A varint ran past 10 bytes (more than 64 value bits).
    VarintOverflow,
    /// A frame declared a length beyond the layout's maximum.
    FrameTooLarge {
        /// Declared payload length.
        declared: usize,
        /// Maximum payload length the layout admits.
        max: usize,
    },
    /// A frame's payload length disagreed with its declared length.
    FrameLength {
        /// Declared payload length.
        declared: usize,
        /// Bytes actually consumed decoding the payload.
        used: usize,
    },
}

/// Payload-free classification of a [`WireError`] — one variant per
/// error shape, usable as a map key or metric label.
///
/// Ordering and [`name`](WireErrorKind::name) are stable: per-kind
/// rejection counters keyed on this enum export deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum WireErrorKind {
    /// [`WireError::Io`].
    Io,
    /// [`WireError::BadMagic`].
    BadMagic,
    /// [`WireError::UnsupportedVersion`].
    UnsupportedVersion,
    /// [`WireError::LayoutHashMismatch`].
    LayoutHashMismatch,
    /// [`WireError::CounterCountMismatch`].
    CounterCountMismatch,
    /// [`WireError::Truncated`].
    Truncated,
    /// [`WireError::BadLabel`].
    BadLabel,
    /// [`WireError::VarintOverflow`].
    VarintOverflow,
    /// [`WireError::FrameTooLarge`].
    FrameTooLarge,
    /// [`WireError::FrameLength`].
    FrameLength,
}

impl WireErrorKind {
    /// Every kind, in stable (declaration) order.
    pub const ALL: [WireErrorKind; 10] = [
        WireErrorKind::Io,
        WireErrorKind::BadMagic,
        WireErrorKind::UnsupportedVersion,
        WireErrorKind::LayoutHashMismatch,
        WireErrorKind::CounterCountMismatch,
        WireErrorKind::Truncated,
        WireErrorKind::BadLabel,
        WireErrorKind::VarintOverflow,
        WireErrorKind::FrameTooLarge,
        WireErrorKind::FrameLength,
    ];

    /// A stable snake_case name, suitable as a metric label value.
    pub fn name(self) -> &'static str {
        match self {
            WireErrorKind::Io => "io",
            WireErrorKind::BadMagic => "bad_magic",
            WireErrorKind::UnsupportedVersion => "unsupported_version",
            WireErrorKind::LayoutHashMismatch => "layout_hash_mismatch",
            WireErrorKind::CounterCountMismatch => "counter_count_mismatch",
            WireErrorKind::Truncated => "truncated",
            WireErrorKind::BadLabel => "bad_label",
            WireErrorKind::VarintOverflow => "varint_overflow",
            WireErrorKind::FrameTooLarge => "frame_too_large",
            WireErrorKind::FrameLength => "frame_length",
        }
    }
}

impl fmt::Display for WireErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl WireError {
    /// This error's payload-free [`WireErrorKind`].
    pub fn kind(&self) -> WireErrorKind {
        match self {
            WireError::Io(_) => WireErrorKind::Io,
            WireError::BadMagic(_) => WireErrorKind::BadMagic,
            WireError::UnsupportedVersion(_) => WireErrorKind::UnsupportedVersion,
            WireError::LayoutHashMismatch { .. } => WireErrorKind::LayoutHashMismatch,
            WireError::CounterCountMismatch { .. } => WireErrorKind::CounterCountMismatch,
            WireError::Truncated(_) => WireErrorKind::Truncated,
            WireError::BadLabel(_) => WireErrorKind::BadLabel,
            WireError::VarintOverflow => WireErrorKind::VarintOverflow,
            WireError::FrameTooLarge { .. } => WireErrorKind::FrameTooLarge,
            WireError::FrameLength { .. } => WireErrorKind::FrameLength,
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o error: {e}"),
            WireError::BadMagic(m) => write!(f, "bad stream magic {m:?} (expected \"CBIR\")"),
            WireError::UnsupportedVersion(v) => {
                write!(f, "unsupported wire version {v} (this build speaks {VERSION})")
            }
            WireError::LayoutHashMismatch { expected, got } => write!(
                f,
                "layout hash mismatch: expected {expected:#018x}, stream has {got:#018x} \
                 (reports come from a different instrumented binary)"
            ),
            WireError::CounterCountMismatch { expected, got } => write!(
                f,
                "counter count mismatch: expected {expected} counters per report, stream declares {got}"
            ),
            WireError::Truncated(what) => write!(f, "truncated stream while reading {what}"),
            WireError::BadLabel(b) => write!(f, "bad label byte {b:#04x} (expected 0 or 1)"),
            WireError::VarintOverflow => f.write_str("varint exceeds 64 bits"),
            WireError::FrameTooLarge { declared, max } => write!(
                f,
                "frame declares {declared} payload bytes but the layout admits at most {max}"
            ),
            WireError::FrameLength { declared, used } => write!(
                f,
                "frame declared {declared} payload bytes but decoding consumed {used}"
            ),
        }
    }
}

impl Error for WireError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Appends `v` to `buf` as an LEB128 varint.
pub(crate) fn push_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Decodes one varint from a slice cursor.
pub(crate) fn take_varint(buf: &[u8], pos: &mut usize) -> Result<u64, WireError> {
    let mut v: u64 = 0;
    for shift in (0..).step_by(7) {
        if shift >= 64 {
            return Err(WireError::VarintOverflow);
        }
        let byte = *buf
            .get(*pos)
            .ok_or(WireError::Truncated("frame payload varint"))?;
        *pos += 1;
        let bits = (byte & 0x7f) as u64;
        if shift == 63 && bits > 1 {
            return Err(WireError::VarintOverflow);
        }
        v |= bits << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
    }
    unreachable!("loop returns or errors")
}

pub(crate) fn read_u8<R: Read>(r: &mut R, what: &'static str) -> Result<u8, WireError> {
    let mut b = [0u8; 1];
    match r.read_exact(&mut b) {
        Ok(()) => Ok(b[0]),
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => Err(WireError::Truncated(what)),
        Err(e) => Err(WireError::Io(e)),
    }
}

/// Payload bytes read per step beyond which a frame buffer grows only
/// as bytes arrive, so a forged frame length reserves at most this much
/// beyond the payload actually received.
const FRAME_CHUNK: usize = 64 * 1024;

/// Maximum payload bytes a report with `counters` counters can occupy:
/// run_id (≤10) + label (1) + 10 per counter.
fn max_payload(counters: usize) -> usize {
    counters.saturating_mul(10).saturating_add(11)
}

/// Fills `buf` with frame payload; end of stream is truncation.
fn read_payload<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<(), WireError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Truncated("frame payload")
        } else {
            WireError::Io(e)
        }
    })
}

/// Streaming encoder: writes the stream header up front, then one frame
/// per report.
#[derive(Debug)]
pub struct WireWriter<W: Write> {
    w: W,
    counters: usize,
    buf: Vec<u8>,
    reports: u64,
    bytes: u64,
}

impl<W: Write> WireWriter<W> {
    /// Opens a stream on `w`, writing the header for the given layout.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Io`] if the header cannot be written.
    pub fn new(mut w: W, layout_hash: u64, counters: usize) -> Result<Self, WireError> {
        let mut head = Vec::with_capacity(4 + 1 + 8 + 10);
        head.extend_from_slice(&MAGIC);
        head.push(VERSION);
        head.extend_from_slice(&layout_hash.to_le_bytes());
        push_varint(&mut head, counters as u64);
        w.write_all(&head)?;
        let bytes = head.len() as u64;
        Ok(WireWriter {
            w,
            counters,
            buf: Vec::with_capacity(64),
            reports: 0,
            bytes,
        })
    }

    /// Encodes one report as a frame.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::CounterCountMismatch`] if the report does not
    /// match the stream layout, or [`WireError::Io`] on write failure.
    pub fn write_report(&mut self, report: &Report) -> Result<(), WireError> {
        if report.counters.len() != self.counters {
            return Err(WireError::CounterCountMismatch {
                expected: self.counters,
                got: report.counters.len(),
            });
        }
        self.buf.clear();
        push_varint(&mut self.buf, report.run_id);
        self.buf.push(match report.label {
            Label::Success => 0,
            Label::Failure => 1,
        });
        for &c in &report.counters {
            push_varint(&mut self.buf, c);
        }
        let mut len = Vec::with_capacity(5);
        push_varint(&mut len, self.buf.len() as u64);
        self.w.write_all(&len)?;
        self.w.write_all(&self.buf)?;
        self.reports += 1;
        self.bytes += (len.len() + self.buf.len()) as u64;
        cbi_telemetry::count("wire.frames_out", 1);
        cbi_telemetry::count("wire.bytes_out", (len.len() + self.buf.len()) as u64);
        Ok(())
    }

    /// Flushes the underlying writer.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Io`] on flush failure.
    pub fn flush(&mut self) -> Result<(), WireError> {
        self.w.flush()?;
        Ok(())
    }

    /// Reports written so far.
    pub fn reports_written(&self) -> u64 {
        self.reports
    }

    /// Total bytes written, header included.
    pub fn bytes_written(&self) -> u64 {
        self.bytes
    }

    /// Flushes and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Io`] on flush failure.
    pub fn into_inner(mut self) -> Result<W, WireError> {
        self.w.flush()?;
        Ok(self.w)
    }
}

/// Streaming decoder: validates the header on construction, then yields
/// one report per frame.
#[derive(Debug)]
pub struct WireReader<R: Read> {
    r: R,
    header: StreamHeader,
    buf: Vec<u8>,
    reports: u64,
    bytes: u64,
}

impl<R: Read> WireReader<R> {
    /// Opens a stream, reading and validating the magic, version, and
    /// layout header.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::BadMagic`], [`WireError::UnsupportedVersion`],
    /// [`WireError::Truncated`], or [`WireError::Io`].
    pub fn new(mut r: R) -> Result<Self, WireError> {
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                WireError::Truncated("stream magic")
            } else {
                WireError::Io(e)
            }
        })?;
        if magic != MAGIC {
            return Err(WireError::BadMagic(magic));
        }
        let version = read_u8(&mut r, "version byte")?;
        if version != VERSION {
            return Err(WireError::UnsupportedVersion(version));
        }
        let mut hash = [0u8; 8];
        r.read_exact(&mut hash).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                WireError::Truncated("layout hash")
            } else {
                WireError::Io(e)
            }
        })?;
        // Decode the counter-count varint byte by byte so the consumed
        // length is counted exactly.
        let mut counters: u64 = 0;
        let mut count_bytes: u64 = 0;
        for shift in (0..).step_by(7) {
            if shift >= 64 {
                return Err(WireError::VarintOverflow);
            }
            let byte = read_u8(&mut r, "counter count")?;
            count_bytes += 1;
            counters |= ((byte & 0x7f) as u64) << shift;
            if byte & 0x80 == 0 {
                break;
            }
        }
        let counters = counters as usize;
        let bytes = 4 + 1 + 8 + count_bytes;
        Ok(WireReader {
            r,
            header: StreamHeader {
                version,
                layout_hash: u64::from_le_bytes(hash),
                counters,
            },
            buf: Vec::with_capacity(64),
            reports: 0,
            bytes,
        })
    }

    /// The stream's header.
    pub fn header(&self) -> StreamHeader {
        self.header
    }

    /// Validates the stream against an expected layout.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::LayoutHashMismatch`] or
    /// [`WireError::CounterCountMismatch`].
    pub fn expect_layout(&self, layout_hash: u64, counters: usize) -> Result<(), WireError> {
        if self.header.layout_hash != layout_hash {
            return Err(WireError::LayoutHashMismatch {
                expected: layout_hash,
                got: self.header.layout_hash,
            });
        }
        if self.header.counters != counters {
            return Err(WireError::CounterCountMismatch {
                expected: counters,
                got: self.header.counters,
            });
        }
        Ok(())
    }

    /// Reads the next frame, or `None` at a clean end of stream.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on truncation mid-frame, oversized frames,
    /// bad labels, or I/O failure.
    pub fn read_report(&mut self) -> Result<Option<Report>, WireError> {
        // A clean stream ends exactly on a frame boundary: EOF while
        // reading the first length byte means "done", EOF anywhere else
        // is truncation.
        let mut first = [0u8; 1];
        loop {
            match self.r.read(&mut first) {
                Ok(0) => return Ok(None),
                Ok(_) => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(WireError::Io(e)),
            }
        }
        let mut len_bytes: u64 = 1;
        let len = if first[0] & 0x80 == 0 {
            first[0] as u64
        } else {
            let mut v = (first[0] & 0x7f) as u64;
            let mut shift = 7;
            loop {
                if shift >= 64 {
                    return Err(WireError::VarintOverflow);
                }
                let byte = read_u8(&mut self.r, "frame length")?;
                len_bytes += 1;
                v |= ((byte & 0x7f) as u64) << shift;
                if byte & 0x80 == 0 {
                    break;
                }
                shift += 7;
            }
            v
        } as usize;
        let max = max_payload(self.header.counters);
        if len > max {
            return Err(WireError::FrameTooLarge { declared: len, max });
        }
        // Every real frame fits one chunk and is read in one call; only a
        // longer declared length takes the growing path.
        if len <= FRAME_CHUNK {
            self.buf.resize(len, 0);
            read_payload(&mut self.r, &mut self.buf)?;
        } else {
            self.read_long_payload(len)?;
        }

        let mut pos = 0;
        let run_id = take_varint(&self.buf, &mut pos)?;
        let label = match self.buf.get(pos) {
            Some(0) => Label::Success,
            Some(1) => Label::Failure,
            Some(&b) => return Err(WireError::BadLabel(b)),
            None => return Err(WireError::Truncated("label byte")),
        };
        pos += 1;
        // Each counter takes at least one payload byte, so the frame
        // length bounds the width a header may claim.
        let mut counters = Vec::with_capacity(self.header.counters.min(len));
        for _ in 0..self.header.counters {
            counters.push(take_varint(&self.buf, &mut pos)?);
        }
        if pos != len {
            return Err(WireError::FrameLength {
                declared: len,
                used: pos,
            });
        }
        self.reports += 1;
        self.bytes += len_bytes + len as u64;
        cbi_telemetry::count("wire.frames_in", 1);
        cbi_telemetry::count("wire.bytes_in", len_bytes + len as u64);
        Ok(Some(Report::new(run_id, label, counters)))
    }

    /// Reads a payload longer than [`FRAME_CHUNK`] into the buffer,
    /// growing it only as bytes arrive: a forged length must not reserve
    /// memory the stream never delivers.
    #[cold]
    fn read_long_payload(&mut self, len: usize) -> Result<(), WireError> {
        self.buf.clear();
        while self.buf.len() < len {
            let start = self.buf.len();
            self.buf.resize(len.min(start + FRAME_CHUNK), 0);
            read_payload(&mut self.r, &mut self.buf[start..])?;
        }
        Ok(())
    }

    /// Reports decoded so far.
    pub fn reports_read(&self) -> u64 {
        self.reports
    }

    /// Exact bytes consumed (header plus frames).
    pub fn bytes_read(&self) -> u64 {
        self.bytes
    }
}

/// Encodes a batch of reports to an in-memory stream.
///
/// # Errors
///
/// Returns [`WireError`] if any report disagrees with `counters`.
pub fn encode_reports(
    reports: &[Report],
    layout_hash: u64,
    counters: usize,
) -> Result<Vec<u8>, WireError> {
    let mut w = WireWriter::new(Vec::new(), layout_hash, counters)?;
    for r in reports {
        w.write_report(r)?;
    }
    w.into_inner()
}

/// Reads a whole wire stream into a collector, returning the stream
/// header alongside it.
///
/// # Errors
///
/// Returns [`WireError`] on any malformed header or frame.
pub fn read_collector<R: Read>(r: R) -> Result<(Collector, StreamHeader), WireError> {
    let mut reader = WireReader::new(r)?;
    let header = reader.header();
    // Size the collector only once a frame has decoded at the header's
    // width, so a forged width in a corrupt stream fails as a typed error.
    let mut next = reader.read_report()?;
    let mut collector = Collector::new(header.counters);
    while let Some(report) = next {
        collector
            .add(report)
            .expect("frames validated against the stream layout");
        next = reader.read_report()?;
    }
    Ok((collector, header))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Report> {
        vec![
            Report::new(0, Label::Success, vec![0, 3, 0, 127, 128]),
            Report::new(1, Label::Failure, vec![1, 0, 0, 0, u64::MAX]),
            Report::new(7, Label::Success, vec![0, 0, 0, 0, 0]),
        ]
    }

    #[test]
    fn round_trip() {
        let bytes = encode_reports(&sample(), 0xdead_beef, 5).unwrap();
        let mut r = WireReader::new(bytes.as_slice()).unwrap();
        assert_eq!(r.header().layout_hash, 0xdead_beef);
        assert_eq!(r.header().counters, 5);
        assert_eq!(r.header().version, VERSION);
        let mut back = Vec::new();
        while let Some(report) = r.read_report().unwrap() {
            back.push(report);
        }
        assert_eq!(back, sample());
        assert_eq!(r.reports_read(), 3);
    }

    #[test]
    fn varint_boundaries() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u64::MAX - 1, u64::MAX] {
            let mut buf = Vec::new();
            push_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(take_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = encode_reports(&sample(), 1, 5).unwrap();
        bytes[0] = b'X';
        assert!(matches!(
            WireReader::new(bytes.as_slice()).unwrap_err(),
            WireError::BadMagic(_)
        ));
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = encode_reports(&sample(), 1, 5).unwrap();
        bytes[4] = 99;
        let err = WireReader::new(bytes.as_slice()).unwrap_err();
        assert!(matches!(err, WireError::UnsupportedVersion(99)));
        assert!(err.to_string().contains("99"));
    }

    #[test]
    fn layout_expectations_enforced() {
        let bytes = encode_reports(&sample(), 42, 5).unwrap();
        let r = WireReader::new(bytes.as_slice()).unwrap();
        r.expect_layout(42, 5).unwrap();
        assert!(matches!(
            r.expect_layout(43, 5).unwrap_err(),
            WireError::LayoutHashMismatch {
                expected: 43,
                got: 42
            }
        ));
        assert!(matches!(
            r.expect_layout(42, 6).unwrap_err(),
            WireError::CounterCountMismatch {
                expected: 6,
                got: 5
            }
        ));
    }

    #[test]
    fn writer_rejects_wrong_width() {
        let mut w = WireWriter::new(Vec::new(), 0, 3).unwrap();
        let err = w
            .write_report(&Report::new(0, Label::Success, vec![1]))
            .unwrap_err();
        assert!(matches!(err, WireError::CounterCountMismatch { .. }));
    }

    #[test]
    fn truncation_mid_frame_detected() {
        let bytes = encode_reports(&sample(), 9, 5).unwrap();
        // Cut one byte off the end: the final frame is truncated.
        let cut = &bytes[..bytes.len() - 1];
        let mut r = WireReader::new(cut).unwrap();
        let mut saw_truncation = false;
        loop {
            match r.read_report() {
                Ok(Some(_)) => continue,
                Ok(None) => break,
                Err(WireError::Truncated(_)) => {
                    saw_truncation = true;
                    break;
                }
                Err(other) => panic!("unexpected error {other}"),
            }
        }
        assert!(saw_truncation);
    }

    #[test]
    fn read_collector_round_trips() {
        let bytes = encode_reports(&sample(), 5, 5).unwrap();
        let (c, header) = read_collector(bytes.as_slice()).unwrap();
        assert_eq!(c.reports(), &sample()[..]);
        assert_eq!(header.layout_hash, 5);
        assert_eq!(c.failure_count(), 1);
    }

    #[test]
    fn binary_is_smaller_than_jsonl() {
        let reports = sample();
        let bytes = encode_reports(&reports, 0, 5).unwrap();
        let jsonl: usize = reports.iter().map(|r| r.to_json().unwrap().len() + 1).sum();
        assert!(
            bytes.len() < jsonl,
            "wire {} bytes >= jsonl {} bytes",
            bytes.len(),
            jsonl
        );
    }
}
