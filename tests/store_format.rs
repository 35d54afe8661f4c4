//! Integration: the checkpoint file format (`easyscale::store`, v4).
//!
//! Two halves. The format must carry every kind of training state bit for
//! bit in about as many bytes as the state itself; and `load` must treat a
//! file as hostile input — truncated, bit-flipped, version-skewed, or
//! crafted with a valid checksum — failing with `InvalidData` every time,
//! never panicking and never allocating for a length the file cannot back.
//!
//! The layout is spelled out here on purpose (offsets, tags): these tests
//! pin it, so a change to it fails until `FORMAT_VERSION` is bumped.
//!
//! ```text
//! offset  size  field
//!      0     8  magic     "ESCKPT\r\n"
//!      8     4  version   u32, 4
//!     12     8  checksum  of every byte from offset 20 to the end
//!     20     8  n         u64, length of the job name
//!     28     n  job name  UTF-8
//!   28+n     …  payload   one tag byte per node of the serde `Value` tree
//! ```
//!
//! v4 differs from v3 in two places. The checksum is FNV-1a-64 folded over
//! little-endian `u64` words, then the zero-extended tail bytes, then the
//! length; xor-then-multiply-by-an-odd-constant is a bijection on the
//! state, so a single flipped bit changes the state at its word and every
//! later step keeps the two states apart — the sweep below finds no flip
//! that loads. And tag 9 is the tree's own `F32s` node (what the shim makes
//! of a `Vec<f32>`, the empty one included), no longer a `Seq` the encoder
//! found to hold only `f32`s: the bytes of a non-empty buffer are the same.

use device::GpuType;
use easyscale::store::{payload_checksum, FORMAT_VERSION};
use easyscale::{CheckpointStore, Engine, JobCheckpoint, JobConfig, Placement};
use models::Workload;
use std::io::ErrorKind;
use std::path::PathBuf;

const JOB: &str = "job";
/// magic (8) | version (4) | checksum (8); the checksum covers the rest.
const HEADER_LEN: usize = 20;
/// The payload follows the job name: length (8) | bytes.
const PAYLOAD_AT: usize = HEADER_LEN + 8 + JOB.len();
const TAG_NULL: u8 = 0;
const TAG_SEQ: u8 = 7;
const TAG_MAP: u8 = 8;
const TAG_F32S: u8 = 9;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("easyscale-fmt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn checkpoint_of(workload: Workload, n_ests: u32) -> JobCheckpoint {
    let cfg = JobConfig::new(workload, 31, n_ests).with_dataset_len(128);
    let mut e = Engine::new(cfg, Placement::homogeneous(n_ests, 2, GpuType::V100));
    e.run(2);
    e.checkpoint()
}

/// A store holding one saved checkpoint, whose file the tests overwrite.
struct Victim {
    dir: PathBuf,
    store: CheckpointStore,
    path: PathBuf,
    step: u64,
    /// The file as `save` wrote it.
    good: Vec<u8>,
}

impl Victim {
    fn new(tag: &str, ckpt: &JobCheckpoint) -> Self {
        let dir = tmpdir(tag);
        let store = CheckpointStore::open(&dir, JOB).unwrap();
        let path = store.save(ckpt).unwrap();
        let good = std::fs::read(&path).unwrap();
        Victim { dir, store, path, step: ckpt.global_step, good }
    }

    /// Put `bytes` where the checkpoint was and load it.
    fn load(&self, bytes: &[u8]) -> std::io::Result<JobCheckpoint> {
        std::fs::write(&self.path, bytes).unwrap();
        self.store.load(self.step)
    }

    #[track_caller]
    fn assert_rejected(&self, bytes: &[u8], what: &str) {
        match self.load(bytes) {
            Ok(_) => panic!("{what}: loaded as a valid checkpoint"),
            Err(e) => assert_eq!(e.kind(), ErrorKind::InvalidData, "{what}: {e}"),
        }
    }
}

impl Drop for Victim {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Make the checksum agree with the bytes again: what is left to reject a
/// re-stamped file is the decoder alone.
fn restamp(mut bytes: Vec<u8>) -> Vec<u8> {
    let sum = payload_checksum(&bytes[HEADER_LEN..]);
    bytes[12..HEADER_LEN].copy_from_slice(&sum.to_le_bytes());
    bytes
}

/// A well-formed v4 file for [`JOB`] around an arbitrary payload.
fn file_around(payload: &[u8]) -> Vec<u8> {
    let mut bytes = b"ESCKPT\r\n".to_vec();
    bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&[0; 8]);
    bytes.extend_from_slice(&(JOB.len() as u64).to_le_bytes());
    bytes.extend_from_slice(JOB.as_bytes());
    bytes.extend_from_slice(payload);
    restamp(bytes)
}

fn with_u64_at(bytes: &[u8], at: usize, value: u64) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[at..at + 8].copy_from_slice(&value.to_le_bytes());
    out
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

// ------------------------------------------------------------ what it carries

#[test]
fn round_trip_is_bit_exact_and_compact_for_every_state_kind() {
    // ResNet18: BatchNorm running stats per EST. Bert: dropout RngState
    // mid-stream. NeuMF: embedding tables.
    for (workload, n_ests) in [(Workload::ResNet18, 4), (Workload::Bert, 2), (Workload::NeuMF, 2)] {
        let name = workload.name();
        let mut ckpt = checkpoint_of(workload, n_ests);
        // Values `==` cannot tell apart from their neighbours.
        ckpt.params[0] = -0.0;
        ckpt.params[1] = f32::from_bits(1); // smallest subnormal
        ckpt.opt_velocity[0] = f32::from_bits(0x807f_ffff); // largest negative subnormal

        let v = Victim::new(&format!("rt-{name}"), &ckpt);
        let back = v.store.load(v.step).unwrap();
        assert_eq!(back, ckpt, "{name}");
        assert_eq!(bits(&back.params), bits(&ckpt.params), "{name}: params");
        assert_eq!(bits(&back.opt_velocity), bits(&ckpt.opt_velocity), "{name}: velocity");
        for (b, c) in back.est_contexts.iter().zip(&ckpt.est_contexts) {
            assert_eq!(b.dropout, c.dropout, "{name}: dropout position");
            let tensors = |ctx: &easyscale::EstContext| -> Vec<Vec<u32>> {
                ctx.implicit.per_layer.iter().flatten().map(|t| bits(t.data())).collect()
            };
            assert_eq!(tensors(b), tensors(c), "{name}: implicit tensors");
        }

        // f32 buffers cost 4 bytes an element; what is left is field names
        // and lengths, about 60 bytes a tensor. 1.03x for Bert and NeuMF,
        // 1.21x here for ResNet18, whose proxy keeps 16-float BatchNorm
        // tensors per EST (1.37x at 8 ESTs; the JSON envelope was 5.3x).
        let (file, state) = (v.good.len(), ckpt.approx_bytes());
        assert!(
            file * 4 <= state * 5,
            "{name}: file is {file} bytes for {state} bytes of state ({:.2}x)",
            file as f64 / state as f64
        );
    }
}

#[test]
fn golden_file_is_pinned() {
    // Every node kind the derive produces for a checkpoint, by hand: nested
    // maps, integer sequences, packed f32 sequences (one holding -0.0 and a
    // subnormal), an empty sequence, a bool.
    let json = r#"{
        "est_contexts": [{
            "vrank": 0,
            "dropout": {"key": 11, "counter_hi": 0, "counter_lo": 5, "lane": 3},
            "implicit": {"per_layer": [[], [{"data": [0.5, -0.0, 1e-45], "shape": [3]}]]},
            "steps": 2,
            "last_loss": 0.25
        }],
        "loader": {
            "cursors": [{"epoch": 0, "batch": 2,
                         "aug_state": {"key": 7, "counter_hi": 0, "counter_lo": 9, "lane": 1}}],
            "seed": 31
        },
        "comm": {
            "layout": {"param_sizes": [2, 1], "param_offsets": [0, 2], "buckets": [[1, 0]]},
            "vworld": 1,
            "rebuilt": true
        },
        "global_step": 2,
        "params": [1.0, -2.5, 3.25],
        "opt_velocity": [0.0, 0.125, -0.0]
    }"#;
    let ckpt: JobCheckpoint = serde_json::from_str(json).unwrap();
    let v = Victim::new("golden", &ckpt);
    assert_eq!(v.store.load(2).unwrap(), ckpt);
    assert_eq!(
        (v.good.len(), payload_checksum(&v.good)),
        (GOLDEN_LEN, GOLDEN_FNV64),
        "the bytes `save` writes changed: bump FORMAT_VERSION ({FORMAT_VERSION}) and re-pin"
    );
}

const GOLDEN_LEN: usize = 983;
const GOLDEN_FNV64: u64 = 0x40f9_e701_32f6_3e05;

// ------------------------------------------------------------ what it rejects

#[test]
fn every_single_bit_flip_is_detected() {
    let v = Victim::new("flip", &checkpoint_of(Workload::NeuMF, 2));
    let n_bits = v.good.len() * 8;
    // Every bit of the header and the job name, every 61st of the payload
    // (61 is coprime to 8, so every bit position within a byte is hit).
    let sweep = (0..PAYLOAD_AT * 8).chain((PAYLOAD_AT * 8..n_bits).step_by(61));
    let mut bytes = v.good.clone();
    for bit in sweep {
        bytes[bit / 8] ^= 1 << (bit % 8);
        v.assert_rejected(&bytes, &format!("bit {bit} of {n_bits} flipped"));
        bytes[bit / 8] ^= 1 << (bit % 8);
    }
    assert!(v.load(&bytes).is_ok(), "the unflipped file still loads");
}

#[test]
fn truncation_at_any_length_is_detected() {
    let v = Victim::new("trunc", &checkpoint_of(Workload::NeuMF, 2));
    let len = v.good.len();
    for keep in (0..len).step_by(37).chain([HEADER_LEN - 1, HEADER_LEN, PAYLOAD_AT, len - 1]) {
        v.assert_rejected(&v.good[..keep], &format!("first {keep} of {len} bytes"));
        // A truncation the checksum agrees with: the decoder must notice.
        if keep >= HEADER_LEN {
            v.assert_rejected(
                &restamp(v.good[..keep].to_vec()),
                &format!("{keep} bytes, restamped"),
            );
        }
    }
}

#[test]
fn other_versions_are_rejected_not_migrated() {
    let v = Victim::new("version", &checkpoint_of(Workload::NeuMF, 2));
    assert_eq!(FORMAT_VERSION, 4);
    for version in [2u32, 3, 5] {
        let mut bytes = v.good.clone();
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        v.assert_rejected(&restamp(bytes), &format!("version {version}"));
    }
}

#[test]
fn lying_length_fields_are_rejected_before_allocation() {
    let ckpt = checkpoint_of(Workload::NeuMF, 2);
    let v = Victim::new("len", &ckpt);
    // Where the length fields are: the job name's; the top-level map's entry
    // count (after its tag); the `est_contexts` sequence's (after the key
    // `est_contexts` and its tag); and the packed `params` buffer's.
    let map_count = PAYLOAD_AT + 1;
    let seq_count = map_count + 8 + (8 + "est_contexts".len()) + 1;
    let key = [&6u64.to_le_bytes()[..], b"params", &[TAG_F32S]].concat();
    let params_count = v.good.windows(key.len()).position(|w| w == key).unwrap() + key.len();
    assert_eq!(v.good[PAYLOAD_AT], TAG_MAP);
    assert_eq!(v.good[seq_count - 1], TAG_SEQ);
    assert_eq!(u64_at(&v.good, seq_count), ckpt.est_contexts.len() as u64);
    assert_eq!(u64_at(&v.good, params_count), ckpt.params.len() as u64);

    for (what, at) in [
        ("job name length", HEADER_LEN),
        ("map entry count", map_count),
        ("sequence count", seq_count),
        ("packed f32 count", params_count),
    ] {
        let len = u64_at(&v.good, at);
        for lie in [len + 1, u64::MAX, u64::MAX / 4 + 1, 1 << 40] {
            v.assert_rejected(
                &restamp(with_u64_at(&v.good, at, lie)),
                &format!("{what} {len} -> {lie}"),
            );
        }
    }
}

#[test]
fn unknown_tag_and_wrong_schema_are_rejected() {
    let v = Victim::new("tag", &checkpoint_of(Workload::NeuMF, 2));
    let mut bytes = v.good.clone();
    bytes[PAYLOAD_AT] = 0x7f;
    v.assert_rejected(&restamp(bytes), "unknown tag");
    // Well-formed container, well-formed value, not a checkpoint.
    v.assert_rejected(&file_around(&[TAG_NULL]), "payload is null");
    v.assert_rejected(&file_around(&[TAG_MAP, 0, 0, 0, 0, 0, 0, 0, 0]), "payload is an empty map");
    // Bytes after a complete payload.
    let mut bytes = v.good.clone();
    bytes.push(TAG_NULL);
    v.assert_rejected(&restamp(bytes), "trailing byte");
    // A job name that is not UTF-8.
    let mut bytes = v.good.clone();
    bytes[HEADER_LEN + 8] = 0xff;
    v.assert_rejected(&restamp(bytes), "job name is not UTF-8");
}

#[test]
fn nesting_beyond_the_decoders_bound_is_rejected_without_recursing_into_it() {
    let v = Victim::new("deep", &checkpoint_of(Workload::NeuMF, 2));
    // The decoder follows at most 32 levels. 33 is just past it; 200,000
    // would overflow the stack of a decoder that recursed all the way.
    for depth in [33usize, 200_000] {
        let mut payload = Vec::with_capacity(depth * 9 + 1);
        for _ in 0..depth {
            payload.push(TAG_SEQ);
            payload.extend_from_slice(&1u64.to_le_bytes());
        }
        payload.push(TAG_NULL);
        v.assert_rejected(&file_around(&payload), &format!("{depth} nested sequences"));
    }
}

#[test]
fn leftover_json_checkpoint_of_the_old_format_is_ignored() {
    let ckpt = checkpoint_of(Workload::NeuMF, 2);
    let v = Victim::new("v2", &ckpt);
    let old = v.dir.join(format!("{JOB}.step000000000009.ckpt.json"));
    std::fs::write(&old, br#"{"version":2,"job_name":"job","checksum":0,"checkpoint":{}}"#)
        .unwrap();
    assert_eq!(v.store.list_steps().unwrap(), vec![ckpt.global_step]);
    let (latest, skipped) = v.store.load_latest_valid().unwrap().unwrap();
    assert_eq!((latest.global_step, skipped), (ckpt.global_step, 0));
    assert!(old.exists(), "not this format's file: neither listed nor pruned");
}
