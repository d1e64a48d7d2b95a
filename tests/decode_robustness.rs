//! Fuzz-style robustness: every binary decoder in the workspace must
//! reject arbitrary byte soup with a typed error — never panic, never hang,
//! never return garbage silently accepted as valid.

use advcomp::core::dist::{CoordMsg, WorkerMsg};
use advcomp::core::journal::{EventRecord, PointRecord, PointStatus};
use advcomp::data::idx::{parse_cifar_batch, parse_idx_images, parse_idx_labels};
use advcomp::models::Checkpoint;
use advcomp::qformat::QFormat;
use advcomp::serve::json::Json;
use advcomp::serve::protocol::Request;
use advcomp::sparse::huffman;
use advcomp::sparse::QuantizedTensor;
use proptest::prelude::*;

/// One valid encoding per JSON format read from a socket or a file: a
/// predict request, every dist message, a journal entry, an event-log line
/// and a golden file.
fn json_seeds() -> Vec<Vec<u8>> {
    let record = PointRecord {
        key: "00c0ffee00c0ffee".into(),
        x: 0.30000000000000004,
        compression: "dns_prune(0.3)".into(),
        status: PointStatus::Ok,
        attempts: 2,
        base_accuracy: 0.9375,
        scenarios: vec![(0.1, 1.0 / 3.0, 0.3), (0.0, 1.0, 0.5)],
        health: vec!["epoch 1: \"rolled back\"".into()],
        error: None,
    }
    .to_json();
    let key = || "00c0ffee00c0ffee".to_string();
    let predict = Request::Predict {
        id: "r1".into(),
        input: (0..784).map(|i| (i as f32 * 0.37).sin().abs()).collect(),
        probs: true,
        attack: Some("ifgsm".into()),
    };
    let mut seeds = vec![predict.to_payload(), record.clone().into_bytes()];
    for m in [
        WorkerMsg::Hello {
            worker: "w0".into(),
            config: key(),
        },
        WorkerMsg::Request,
        WorkerMsg::Heartbeat { key: key() },
        WorkerMsg::Result { key: key(), record },
        WorkerMsg::Failed {
            key: key(),
            error: "panic: \"boom\"".into(),
        },
    ] {
        seeds.push(m.to_json().into_bytes());
    }
    for m in [
        CoordMsg::Grant {
            index: 1,
            key: key(),
            deadline_ms: 2000,
        },
        CoordMsg::Wait { ms: 250 },
        CoordMsg::Done,
        CoordMsg::Reject {
            reason: "config hash mismatch".into(),
        },
    ] {
        seeds.push(m.to_json().into_bytes());
    }
    seeds.push(
        br#"{"seq": 7, "kind": "lease_expired", "key": "00c0ffee00c0ffee", "detail": "w1"}"#
            .to_vec(),
    );
    seeds.push(include_bytes!("goldens/lenet_prune_mask.json").to_vec());
    seeds
}

/// Bytes a structural mutation writes: JSON punctuation, digits, literal
/// starts, escapes, control bytes and non-UTF-8.
const JSON_BYTES: &[u8] = b"[]{}\",:\\-+.0123456789eEtfnu/ \n\t\x00\x1f\x7f\xc3\xa9\xed\xff";

/// Applies `(op, a, b, c)` edits to `seed`: truncate, splice a slice of the
/// seed in, duplicate a span, or overwrite a byte.
fn mutate(seed: &[u8], ops: &[(u8, u32, u32, u8)]) -> Vec<u8> {
    let mut out = seed.to_vec();
    for &(op, a, b, c) in ops {
        let at = a as usize % (out.len() + 1);
        match op {
            0 => out.truncate(at),
            1 => {
                let from = b as usize % (seed.len() + 1);
                let to = (from + c as usize).min(seed.len());
                out.splice(at..at, seed[from..to].iter().copied());
            }
            2 => {
                let end = (at + b as usize % 64).min(out.len());
                let span = out[at..end].to_vec();
                out.splice(end..end, span);
            }
            _ if !out.is_empty() => {
                let i = at.min(out.len() - 1);
                out[i] = JSON_BYTES[c as usize % JSON_BYTES.len()];
            }
            _ => {}
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn checkpoint_decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Checkpoint::from_bytes(&bytes);
    }

    #[test]
    fn idx_parsers_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = parse_idx_images(&bytes);
        let _ = parse_idx_labels(&bytes);
        let _ = parse_cifar_batch(&bytes);
    }

    #[test]
    fn quantized_unpack_never_panics(
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
        n in 0usize..64,
        bw in 2u32..17,
    ) {
        if let Ok(fmt) = QFormat::for_bitwidth(bw) {
            if let Ok(qt) = QuantizedTensor::unpack(&bytes, &[n], fmt) {
                // Anything accepted must decode to in-range values.
                let t = qt.to_tensor().unwrap();
                let in_range = t
                    .data()
                    .iter()
                    .all(|v| *v >= fmt.min_value() && *v <= fmt.max_value());
                prop_assert!(in_range);
            }
        }
    }

    #[test]
    fn huffman_decoder_never_panics(
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        len in 0usize..64,
        symbols in proptest::collection::vec(-8i32..8, 1..32),
    ) {
        // A legitimate codebook fed a corrupted stream must error, not
        // panic or loop.
        let book = huffman::build_codebook(&symbols).unwrap();
        let bits = payload.len() * 8;
        let enc = huffman::Encoded { bytes: payload, len, bits };
        let _ = huffman::decode(&enc, &book);
    }

    /// Checkpoints with adversarial headers (huge claimed counts) must fail
    /// fast on truncation rather than attempt enormous allocations.
    #[test]
    fn checkpoint_truncation_from_valid_prefix(cut in 0usize..100) {
        let model = advcomp::models::mlp(4, 0);
        let bytes = Checkpoint::capture(&model).to_bytes();
        let cut = cut.min(bytes.len().saturating_sub(1));
        let truncated = &bytes[..bytes.len() - 1 - cut];
        prop_assert!(Checkpoint::from_bytes(truncated).is_err());
    }

    /// Every JSON decoder of untrusted bytes, fed structurally mutated
    /// valid encodings, must return (Ok or a typed error), never panic.
    #[test]
    fn json_decoders_never_panic_on_mutated_encodings(
        which in 0usize..64,
        ops in proptest::collection::vec((0u8..4, any::<u32>(), any::<u32>(), any::<u8>()), 1..6),
    ) {
        let seeds = json_seeds();
        let bytes = mutate(&seeds[which % seeds.len()], &ops);
        let _ = Request::parse(&bytes);
        let _ = Json::parse(&bytes);
        let text = String::from_utf8_lossy(&bytes);
        let _ = WorkerMsg::from_json(&text);
        let _ = CoordMsg::from_json(&text);
        let _ = PointRecord::from_json(&text);
        let _ = EventRecord::from_line(&text);
        if let Ok(golden) = advcomp::wire::json::parse(&text) {
            let _ = advcomp_testkit::golden::tensor_from_json(&golden);
        }
    }
}
