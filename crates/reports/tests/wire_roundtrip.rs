//! Property tests for the binary wire codec: randomized report streams
//! must round-trip exactly, always beat JSONL on size, and every
//! corruption class must surface a typed error.
//!
//! Driven by the in-tree PCG generator, so every failing case is
//! reproducible from its seed.

use cbi_reports::wire::{self, WireError, WireReader, WireWriter};
use cbi_reports::{decode_batch, Collector, Label, Report};
use cbi_sampler::Pcg32;

/// A random report stream with a mix of small, large, and zero counters
/// (zero-heavy vectors are the common case for sampled campaigns).
fn random_reports(seed: u64, n: usize, counters: usize) -> Vec<Report> {
    let mut rng = Pcg32::new(seed);
    let mut run_id = 0u64;
    (0..n)
        .map(|_| {
            run_id += 1 + rng.below(9);
            let label = if rng.next_f64() < 0.3 {
                Label::Failure
            } else {
                Label::Success
            };
            let values: Vec<u64> = (0..counters)
                .map(|_| match rng.below(10) {
                    0..=5 => 0,
                    6 | 7 => rng.below(16),
                    8 => rng.below(1 << 20),
                    // Exercise multi-byte varints up to the full range.
                    _ => u64::MAX - rng.below(1 << 30),
                })
                .collect();
            Report::new(run_id, label, values)
        })
        .collect()
}

#[test]
fn randomized_streams_round_trip_exactly() {
    for seed in 0..24 {
        let counters = 1 + (seed as usize * 7) % 40;
        let reports = random_reports(seed, 50, counters);
        let bytes = wire::encode_reports(&reports, 0x1234_5678_9abc_def0, counters).unwrap();
        let (collector, header) = wire::read_collector(bytes.as_slice()).unwrap();
        assert_eq!(header.layout_hash, 0x1234_5678_9abc_def0, "seed {seed}");
        assert_eq!(header.counters, counters, "seed {seed}");
        assert_eq!(collector.reports(), &reports[..], "seed {seed}");
    }
    // Frames wider than the decoder's 64 KiB read step arrive in pieces.
    let reports = random_reports(99, 3, 40_000);
    let bytes = wire::encode_reports(&reports, 7, 40_000).unwrap();
    assert!(bytes.len() > 3 * 65_536, "frames must exceed one read step");
    let (collector, _) = wire::read_collector(bytes.as_slice()).unwrap();
    assert_eq!(collector.reports(), &reports[..]);
}

#[test]
fn binary_beats_jsonl_on_randomized_streams() {
    for seed in 0..12 {
        let counters = 5 + (seed as usize * 11) % 60;
        let reports = random_reports(seed + 1000, 80, counters);
        let binary = wire::encode_reports(&reports, 0xfeed, counters).unwrap();

        let mut collector = Collector::new(counters);
        for r in &reports {
            collector.add(r.clone()).unwrap();
        }
        let mut jsonl = Vec::new();
        collector.write_jsonl(&mut jsonl).unwrap();

        assert!(
            binary.len() < jsonl.len(),
            "seed {seed}: binary {} >= jsonl {}",
            binary.len(),
            jsonl.len()
        );
    }
}

#[test]
fn truncation_at_every_boundary_is_detected() {
    let counters = 6;
    let reports = random_reports(7, 8, counters);
    let bytes = wire::encode_reports(&reports, 0xabc, counters).unwrap();

    // Truncating anywhere strictly inside the stream either yields a
    // clean shorter stream (cut exactly between frames) or a typed
    // truncation error — never garbage reports.
    for cut in 1..bytes.len() {
        let slice = &bytes[..cut];
        match WireReader::new(slice) {
            Err(WireError::Truncated(_)) => continue, // header cut short
            Err(e) => panic!("cut {cut}: unexpected header error {e}"),
            Ok(mut reader) => {
                let mut ok = 0usize;
                loop {
                    match reader.read_report() {
                        Ok(Some(r)) => {
                            assert_eq!(r, reports[ok], "cut {cut}: report {ok} corrupted");
                            ok += 1;
                        }
                        Ok(None) => {
                            // Clean EOF: the cut fell exactly on a frame
                            // boundary.
                            break;
                        }
                        Err(WireError::Truncated(_)) => break,
                        Err(e) => panic!("cut {cut}: unexpected error {e}"),
                    }
                }
                assert!(ok <= reports.len());
            }
        }
    }
}

#[test]
fn bad_version_and_layout_are_typed_errors() {
    let counters = 3;
    let reports = random_reports(11, 4, counters);
    let mut bytes = wire::encode_reports(&reports, 0xa1, counters).unwrap();

    // Bad magic.
    let mut bad = bytes.clone();
    bad[0] ^= 0xff;
    assert!(matches!(
        WireReader::new(bad.as_slice()).unwrap_err(),
        WireError::BadMagic(_)
    ));

    // Unsupported version.
    bytes[4] = wire::VERSION + 9;
    assert!(matches!(
        WireReader::new(bytes.as_slice()).unwrap_err(),
        WireError::UnsupportedVersion(v) if v == wire::VERSION + 9
    ));
    bytes[4] = wire::VERSION;

    // Layout hash mismatch, detected before any frame is decoded.
    let reader = WireReader::new(bytes.as_slice()).unwrap();
    let err = reader.expect_layout(0xdead, counters).unwrap_err();
    assert!(matches!(
        err,
        WireError::LayoutHashMismatch {
            expected: 0xdead,
            got: 0xa1
        }
    ));
    let err = reader.expect_layout(0xa1, counters + 1).unwrap_err();
    assert!(matches!(err, WireError::CounterCountMismatch { .. }));
    reader.expect_layout(0xa1, counters).unwrap();
}

/// LEB128, as the wire format encodes every length and count.
fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// A 19-byte stream header whose counter count claims 2^40 counters.
fn header_claiming_2_pow_40_counters() -> Vec<u8> {
    let mut bytes = wire::MAGIC.to_vec();
    bytes.push(wire::VERSION);
    bytes.extend_from_slice(&0xa1u64.to_le_bytes());
    push_varint(&mut bytes, 1 << 40);
    assert_eq!(bytes.len(), 19);
    bytes
}

#[test]
fn forged_header_width_and_frame_length_are_typed_errors() {
    // (a) The header claims 2^40 counters; the one frame that follows
    // carries 2 payload bytes (run id, label) and no counters at all.
    let mut wide = header_claiming_2_pow_40_counters();
    wide.extend_from_slice(&[2, 7, 0]);
    assert_eq!(wide.len(), 22);
    // (b) A frame-length varint declares 2^43 payload bytes (within the
    // forged width's frame limit) and the stream ends right after it.
    let mut long = header_claiming_2_pow_40_counters();
    push_varint(&mut long, 1 << 43);
    assert_eq!(long.len(), 26);

    // Neither may size an allocation from the claim: both must fail as
    // typed errors from the bytes actually present.
    for (case, bytes) in [("wide header", &wide), ("long frame", &long)] {
        let rejected = decode_batch(bytes, None).unwrap_err();
        assert!(
            matches!(rejected.error, WireError::Truncated(_)),
            "{case}: decode_batch gave {}",
            rejected.error
        );
        assert_eq!(rejected.decoded, 0, "{case}");
        let err = wire::read_collector(bytes.as_slice()).unwrap_err();
        assert!(
            matches!(err, WireError::Truncated(_)),
            "{case}: read_collector gave {err}"
        );
    }
}

#[test]
fn writer_reader_counters_account_for_every_byte() {
    let counters = 10;
    let reports = random_reports(21, 30, counters);
    let mut buf = Vec::new();
    let mut writer = WireWriter::new(&mut buf, 0x77, counters).unwrap();
    for r in &reports {
        writer.write_report(r).unwrap();
    }
    writer.flush().unwrap();
    assert_eq!(writer.reports_written(), 30);
    let written = writer.bytes_written();

    let mut reader = WireReader::new(buf.as_slice()).unwrap();
    while reader.read_report().unwrap().is_some() {}
    assert_eq!(reader.reports_read(), 30);
    assert_eq!(reader.bytes_read(), written);
    assert_eq!(written, buf.len() as u64, "every byte accounted for");
}
